#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace phi::telemetry {

namespace {

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  if (!f) return false;
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

#ifndef PHI_TELEMETRY_OFF

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt_short(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// JSON numbers cannot be NaN/Inf; export those as null.
std::string json_number(double v) {
  return std::isfinite(v) ? fmt_double(v) : std::string("null");
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string prom_label_value(const std::string& v) {
  std::string out;
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string prom_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += prom_name(k) + "=\"" + prom_label_value(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string flat_labels(const Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ';';
    out += k + "=" + v;
  }
  return out;
}

}  // namespace

Histogram::Histogram(HistogramOptions opt) : opt_(opt) {
  if (opt_.buckets == 0) opt_.buckets = 1;
  if (opt_.growth <= 1.0) opt_.growth = 2.0;
  if (opt_.first_bound <= 0.0) opt_.first_bound = 1e-6;
  bounds_.reserve(opt_.buckets);
  double b = opt_.first_bound;
  for (std::size_t i = 0; i < opt_.buckets; ++i) {
    bounds_.push_back(b);
    b *= opt_.growth;
  }
  counts_.assign(opt_.buckets + 1, 0);
}

void Histogram::observe(double x) noexcept {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  p50_.add(x);
  p90_.add(x);
  p99_.add(x);
}

void Histogram::reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  p50_ = util::P2Quantile(0.5);
  p90_ = util::P2Quantile(0.9);
  p99_ = util::P2Quantile(0.99);
}

void Histogram::merge(const Histogram& o) noexcept {
  if (o.count_ == 0) return;
  if (bounds_ == o.bounds_) {
    for (std::size_t i = 0; i < counts_.size(); ++i)
      counts_[i] += o.counts_[i];
  }
  min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
  max_ = count_ == 0 ? o.max_ : std::max(max_, o.max_);
  count_ += o.count_;
  sum_ += o.sum_;
  p50_.merge(o.p50_);
  p90_.merge(o.p90_);
  p99_.merge(o.p99_);
}

std::string MetricRegistry::key_of(const std::string& name,
                                   const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : sorted_labels(labels)) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter& MetricRegistry::counter(const std::string& name,
                                 const Labels& labels) {
  auto& e = counters_[key_of(name, labels)];
  if (!e.instrument) {
    e.name = name;
    e.labels = sorted_labels(labels);
    e.instrument = std::make_unique<Counter>();
  }
  return *e.instrument;
}

Gauge& MetricRegistry::gauge(const std::string& name, const Labels& labels) {
  auto& e = gauges_[key_of(name, labels)];
  if (!e.instrument) {
    e.name = name;
    e.labels = sorted_labels(labels);
    e.instrument = std::make_unique<Gauge>();
  }
  return *e.instrument;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     const Labels& labels,
                                     HistogramOptions opt) {
  auto& e = histograms_[key_of(name, labels)];
  if (!e.instrument) {
    e.name = name;
    e.labels = sorted_labels(labels);
    e.instrument = std::make_unique<Histogram>(opt);
  }
  return *e.instrument;
}

TimeSeries& MetricRegistry::timeseries(const std::string& name,
                                       const Labels& labels) {
  auto& e = timeseries_[key_of(name, labels)];
  if (!e.instrument) {
    e.name = name;
    e.labels = sorted_labels(labels);
    e.instrument = std::make_unique<TimeSeries>();
  }
  return *e.instrument;
}

std::size_t MetricRegistry::size() const noexcept {
  return counters_.size() + gauges_.size() + histograms_.size() +
         timeseries_.size();
}

void MetricRegistry::reset_values() noexcept {
  for (auto& [k, e] : counters_) e.instrument->reset();
  for (auto& [k, e] : gauges_) e.instrument->reset();
  for (auto& [k, e] : histograms_) e.instrument->reset();
  for (auto& [k, e] : timeseries_) e.instrument->reset();
}

std::string MetricRegistry::prometheus_text() const {
  std::ostringstream out;
  std::string last_type_line;
  auto type_line = [&](const std::string& name, const char* kind) {
    // One # TYPE per metric name, even with several label sets.
    const std::string line = "# TYPE " + prom_name(name) + " " + kind + "\n";
    if (line != last_type_line) {
      out << line;
      last_type_line = line;
    }
  };
  for (const auto& [key, e] : counters_) {
    type_line(e.name, "counter");
    out << prom_name(e.name) << prom_labels(e.labels) << ' '
        << e.instrument->value() << '\n';
  }
  for (const auto& [key, e] : gauges_) {
    type_line(e.name, "gauge");
    out << prom_name(e.name) << prom_labels(e.labels) << ' '
        << fmt_double(e.instrument->value()) << '\n';
  }
  for (const auto& [key, e] : histograms_) {
    type_line(e.name, "histogram");
    const auto& h = *e.instrument;
    const std::string name = prom_name(e.name);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
      cumulative += h.bucket_counts()[i];
      const std::string le =
          i < h.bucket_bounds().size()
              ? fmt_short(h.bucket_bounds()[i])
              : std::string("+Inf");
      out << name << "_bucket"
          << prom_labels(e.labels, "le=\"" + le + "\"") << ' ' << cumulative
          << '\n';
    }
    out << name << "_sum" << prom_labels(e.labels) << ' '
        << fmt_double(h.sum()) << '\n';
    out << name << "_count" << prom_labels(e.labels) << ' ' << h.count()
        << '\n';
  }
  return out.str();
}

std::string MetricRegistry::json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, e] : counters_) {
    out << (first ? "" : ",") << "\n    {\"name\":\"" << json_escape(e.name)
        << "\",\"labels\":" << json_labels(e.labels)
        << ",\"value\":" << e.instrument->value() << '}';
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"gauges\": [";
  first = true;
  for (const auto& [key, e] : gauges_) {
    out << (first ? "" : ",") << "\n    {\"name\":\"" << json_escape(e.name)
        << "\",\"labels\":" << json_labels(e.labels)
        << ",\"value\":" << json_number(e.instrument->value()) << '}';
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"histograms\": [";
  first = true;
  for (const auto& [key, e] : histograms_) {
    const auto& h = *e.instrument;
    out << (first ? "" : ",") << "\n    {\"name\":\"" << json_escape(e.name)
        << "\",\"labels\":" << json_labels(e.labels)
        << ",\"count\":" << h.count()
        << ",\"sum\":" << json_number(h.sum())
        << ",\"min\":" << json_number(h.min())
        << ",\"max\":" << json_number(h.max())
        << ",\"mean\":" << json_number(h.mean())
        << ",\"p50\":" << json_number(h.p50())
        << ",\"p90\":" << json_number(h.p90())
        << ",\"p99\":" << json_number(h.p99()) << '}';
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

std::string MetricRegistry::csv() const {
  std::ostringstream out;
  out << "kind,name,labels,value,count,sum,min,max,p50,p90,p99\n";
  for (const auto& [key, e] : counters_) {
    out << "counter," << e.name << ',' << flat_labels(e.labels) << ','
        << e.instrument->value() << ",,,,,,,\n";
  }
  for (const auto& [key, e] : gauges_) {
    out << "gauge," << e.name << ',' << flat_labels(e.labels) << ','
        << fmt_short(e.instrument->value()) << ",,,,,,,\n";
  }
  for (const auto& [key, e] : histograms_) {
    const auto& h = *e.instrument;
    out << "histogram," << e.name << ',' << flat_labels(e.labels) << ",,"
        << h.count() << ',' << fmt_short(h.sum()) << ','
        << fmt_short(h.min()) << ',' << fmt_short(h.max()) << ','
        << fmt_short(h.p50()) << ',' << fmt_short(h.p90()) << ','
        << fmt_short(h.p99()) << '\n';
  }
  return out.str();
}

std::string MetricRegistry::timeseries_csv() const {
  std::ostringstream out;
  out << "series,labels,t_s,value\n";
  for (const auto& [key, e] : timeseries_) {
    const std::string prefix = e.name + ',' + flat_labels(e.labels) + ',';
    const auto& ts = *e.instrument;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      out << prefix << fmt_short(ts.times()[i]) << ','
          << fmt_short(ts.values()[i]) << '\n';
    }
  }
  return out.str();
}

bool MetricRegistry::write_prometheus(const std::string& path) const {
  return write_text(path, prometheus_text());
}

bool MetricRegistry::write_json(const std::string& path) const {
  return write_text(path, json());
}

bool MetricRegistry::write_csv(const std::string& path) const {
  return write_text(path, csv());
}

bool MetricRegistry::write_timeseries_csv(const std::string& path) const {
  return write_text(path, timeseries_csv());
}

void MetricRegistry::merge(const MetricRegistry& other) {
  // std::map iteration is key-ordered, so the instruments created here
  // land in the same positions regardless of merge history.
  for (const auto& [key, e] : other.counters_)
    counter(e.name, e.labels).merge(*e.instrument);
  for (const auto& [key, e] : other.gauges_)
    gauge(e.name, e.labels).merge(*e.instrument);
  for (const auto& [key, e] : other.histograms_)
    histogram(e.name, e.labels, e.instrument->options())
        .merge(*e.instrument);
  for (const auto& [key, e] : other.timeseries_)
    timeseries(e.name, e.labels).merge(*e.instrument);
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry r;
  return r;
}

namespace {
/// The innermost ScopedRegistry on this thread; null = use global().
thread_local MetricRegistry* t_current = nullptr;
thread_local bool t_recording_series = false;
}  // namespace

bool recording_series() noexcept { return t_recording_series; }

bool set_recording_series(bool on) noexcept {
  return std::exchange(t_recording_series, on);
}

MetricRegistry& MetricRegistry::current() noexcept {
  return t_current != nullptr ? *t_current : global();
}

ScopedRegistry::ScopedRegistry(MetricRegistry& r) noexcept
    : prev_(t_current) {
  t_current = &r;
}

ScopedRegistry::~ScopedRegistry() { t_current = prev_; }

#else  // PHI_TELEMETRY_OFF

const std::vector<double>& Histogram::bucket_bounds() const noexcept {
  static const std::vector<double> empty;
  return empty;
}

const std::vector<std::uint64_t>& Histogram::bucket_counts() const noexcept {
  static const std::vector<std::uint64_t> empty;
  return empty;
}

const std::vector<double>& TimeSeries::times() const noexcept {
  static const std::vector<double> empty;
  return empty;
}

const std::vector<double>& TimeSeries::values() const noexcept {
  static const std::vector<double> empty;
  return empty;
}

// Even with instrumentation compiled out, the exporters still emit valid
// (empty) artifacts so pipelines that collect them keep working.
bool MetricRegistry::write_prometheus(const std::string& path) const {
  return write_text(path, prometheus_text());
}

bool MetricRegistry::write_json(const std::string& path) const {
  return write_text(path, json());
}

bool MetricRegistry::write_csv(const std::string& path) const {
  return write_text(path, csv());
}

bool MetricRegistry::write_timeseries_csv(const std::string& path) const {
  return write_text(path, timeseries_csv());
}

MetricRegistry& MetricRegistry::global() {
  static MetricRegistry r;
  return r;
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace phi::telemetry
