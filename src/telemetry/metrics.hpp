// metrics.hpp — the metric registry at the heart of the telemetry
// subsystem: named counters, gauges, and histograms with optional labels
// ({"link": "bottleneck"}), handed out as stable references so hot paths
// pay one pointer-indirect update per event. Histograms combine fixed
// log-scale buckets (for Prometheus-style exposition) with the P² quantile
// estimators already used elsewhere (for cheap p50/p90/p99).
//
// Build with -DPHI_TELEMETRY_OFF (CMake option of the same name) and the
// whole API collapses to empty inline stubs: instrument updates compile to
// nothing, which bench/micro_telemetry verifies on the scheduler hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#ifndef PHI_TELEMETRY_OFF
#include <map>

#include "util/p2_quantile.hpp"
#endif

namespace phi::telemetry {

/// Instrument labels: key/value pairs identifying one stream of a named
/// metric (e.g. {"link", "bottleneck"}). Order does not matter — the
/// registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Log-scale bucket layout for histograms: upper bounds
/// first_bound * growth^i for i in [0, buckets), plus an implicit +Inf
/// overflow bucket. The default spans 1e-6 .. ~4e6 in powers of two —
/// wide enough for seconds-valued latencies and window sizes alike.
struct HistogramOptions {
  double first_bound = 1e-6;
  double growth = 2.0;
  std::size_t buckets = 42;
};

#ifndef PHI_TELEMETRY_OFF

/// Monotonically increasing event count. Updates are plain integer adds:
/// instruments are never shared across threads — parallel tasks publish
/// into their own ScopedRegistry and the executor folds the task
/// registries together afterwards (see merge()).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_ += n; }
  std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }
  /// Fold a task-scoped counter into this one (event counts add).
  void merge(const Counter& o) noexcept { v_ += o.v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written instantaneous value (heap size, occupancy, ...).
class Gauge {
 public:
  void set(double v) noexcept { v_ = v; }
  void add(double d) noexcept { v_ += d; }
  double value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0.0; }
  /// Fold a task-scoped gauge into this one: last write wins, exactly as
  /// if the merged task had run serially after everything already folded.
  void merge(const Gauge& o) noexcept { v_ = o.v_; }

 private:
  double v_ = 0.0;
};

/// A (time, value) series captured on a simulated-time cadence into
/// columnar buffers: queue depth over time, cwnd over time, context
/// staleness over time. Callers reserve() the expected sample count up
/// front so steady-state sampling never allocates. Like every other
/// instrument, a series is task-private and folded deterministically:
/// merge() appends the other series' samples, so folding per-task
/// registries in submission order concatenates rep 0's samples, then
/// rep 1's, ... — bit-identical regardless of thread count.
class TimeSeries {
 public:
  void reserve(std::size_t n) {
    t_.reserve(n);
    v_.reserve(n);
  }
  void sample(double t_s, double v) {
    t_.push_back(t_s);
    v_.push_back(v);
  }
  std::size_t size() const noexcept { return t_.size(); }
  const std::vector<double>& times() const noexcept { return t_; }
  const std::vector<double>& values() const noexcept { return v_; }
  void reset() noexcept {
    t_.clear();
    v_.clear();
  }
  /// Fold a task-scoped series into this one (samples append in order).
  void merge(const TimeSeries& o) {
    t_.insert(t_.end(), o.t_.begin(), o.t_.end());
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }

 private:
  std::vector<double> t_;
  std::vector<double> v_;
};

/// Distribution of observed values: log-scale bucket counts plus running
/// sum/min/max and streaming P² estimates of p50/p90/p99.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opt = {});

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }
  double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double p50() const { return count_ ? p50_.value() : 0.0; }
  double p90() const { return count_ ? p90_.value() : 0.0; }
  double p99() const { return count_ ? p99_.value() : 0.0; }

  /// Finite upper bounds; the +Inf overflow bucket is bucket_counts()'s
  /// last element (bucket_counts().size() == bucket_bounds().size() + 1).
  const std::vector<double>& bucket_bounds() const noexcept {
    return bounds_;
  }
  const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }

  const HistogramOptions& options() const noexcept { return opt_; }

  void reset() noexcept;

  /// Fold a task-scoped histogram into this one: bucket counts, count,
  /// sum add; min/max combine; quantile estimators fold via
  /// P2Quantile::merge (deterministic, approximate). Histograms with a
  /// different bucket layout merge everything except the buckets.
  void merge(const Histogram& o) noexcept;

 private:
  HistogramOptions opt_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  util::P2Quantile p50_{0.5};
  util::P2Quantile p90_{0.9};
  util::P2Quantile p99_{0.99};
};

/// Owner of every instrument. Lookups are by (name, labels): the same
/// pair always returns the same instrument, so components can cache the
/// reference at construction and update it for free afterwards.
/// Instruments live as long as the registry (they are never evicted —
/// instrument cardinality is bounded by code, not traffic), which keeps
/// cached handles valid across reset_values().
class MetricRegistry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       HistogramOptions opt = {});
  TimeSeries& timeseries(const std::string& name, const Labels& labels = {});

  std::size_t size() const noexcept;

  /// Zero every instrument but keep identities (and cached handles)
  /// intact — call between benchmark repetitions, never clear().
  void reset_values() noexcept;

  /// Prometheus text exposition format (names sanitized: '.' -> '_').
  std::string prometheus_text() const;
  /// One JSON object with "counters" / "gauges" / "histograms" arrays.
  std::string json() const;
  /// Flat CSV: kind,name,labels,value,count,sum,min,max,p50,p90,p99.
  std::string csv() const;
  /// Tidy long-form CSV of every time series: series,labels,t_s,value —
  /// one row per sample, series in deterministic key order.
  std::string timeseries_csv() const;

  bool write_prometheus(const std::string& path) const;
  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;
  bool write_timeseries_csv(const std::string& path) const;

  /// Visit every time series in deterministic key order. `fn` receives
  /// (name, labels, series); used by report tooling to summarize without
  /// re-parsing the CSV.
  template <typename Fn>
  void for_each_timeseries(Fn&& fn) const {
    for (const auto& [key, e] : timeseries_) fn(e.name, e.labels, *e.instrument);
  }

  /// Fold another registry into this one, instrument by instrument
  /// (matched on name + labels; missing instruments are created). The
  /// fold is a deterministic function of the two registries, so folding
  /// a fixed sequence — e.g. the per-task registries of a parallel run,
  /// in submission order — always produces bit-identical contents
  /// regardless of how many threads executed the tasks.
  void merge(const MetricRegistry& other);

  /// The process-wide default registry every built-in component
  /// publishes into.
  static MetricRegistry& global();

  /// The registry new instruments resolve against on this thread:
  /// the innermost ScopedRegistry, or global() when none is active.
  static MetricRegistry& current() noexcept;

 private:
  template <typename T>
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<T> instrument;
  };

  static std::string key_of(const std::string& name, const Labels& labels);

  // std::map keeps exports deterministically ordered by key.
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
  std::map<std::string, Entry<TimeSeries>> timeseries_;
};

/// RAII scope that routes this thread's registry() lookups into `r`
/// instead of the process-wide global. This is how parallel tasks get
/// private telemetry: the executor installs a fresh registry around each
/// task, components constructed inside cache handles into it, and the
/// pool folds the task registries back into the submitter's registry
/// (in submission order) once the batch completes. Scopes nest; the
/// previous registry is restored on destruction. Thread-local: a scope
/// installed on one thread is invisible to every other.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricRegistry& r) noexcept;
  ~ScopedRegistry();

  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricRegistry* prev_;
};

/// Whether this thread is inside a run that records time series (a
/// scenario run with TelemetrySpec::timeseries_dt > 0). Series that grow
/// with every control-plane message sample only while it holds, so a
/// run that records no time series keeps no traffic-sized buffers.
/// Thread-local, like the installed registry; false by default.
bool recording_series() noexcept;
/// Set this thread's switch; returns the previous value.
bool set_recording_series(bool on) noexcept;

#else  // PHI_TELEMETRY_OFF — the whole API as empty inline stubs.

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
  void merge(const Counter&) noexcept {}
};

class Gauge {
 public:
  void set(double) noexcept {}
  void add(double) noexcept {}
  double value() const noexcept { return 0.0; }
  void reset() noexcept {}
  void merge(const Gauge&) noexcept {}
};

class TimeSeries {
 public:
  void reserve(std::size_t) {}
  void sample(double, double) {}
  std::size_t size() const noexcept { return 0; }
  const std::vector<double>& times() const noexcept;
  const std::vector<double>& values() const noexcept;
  void reset() noexcept {}
  void merge(const TimeSeries&) {}
};

class Histogram {
 public:
  explicit Histogram(HistogramOptions opt = {}) : opt_(opt) {}
  void observe(double) noexcept {}
  std::uint64_t count() const noexcept { return 0; }
  double sum() const noexcept { return 0.0; }
  double min() const noexcept { return 0.0; }
  double max() const noexcept { return 0.0; }
  double mean() const noexcept { return 0.0; }
  double p50() const { return 0.0; }
  double p90() const { return 0.0; }
  double p99() const { return 0.0; }
  const std::vector<double>& bucket_bounds() const noexcept;
  const std::vector<std::uint64_t>& bucket_counts() const noexcept;
  const HistogramOptions& options() const noexcept { return opt_; }
  void reset() noexcept {}
  void merge(const Histogram&) noexcept {}

 private:
  HistogramOptions opt_;
};

class MetricRegistry {
 public:
  Counter& counter(const std::string&, const Labels& = {}) { return c_; }
  Gauge& gauge(const std::string&, const Labels& = {}) { return g_; }
  Histogram& histogram(const std::string&, const Labels& = {},
                       HistogramOptions = {}) {
    return h_;
  }
  TimeSeries& timeseries(const std::string&, const Labels& = {}) {
    return t_;
  }
  std::size_t size() const noexcept { return 0; }
  void reset_values() noexcept {}
  std::string prometheus_text() const { return {}; }
  std::string json() const { return "{}\n"; }
  std::string csv() const { return {}; }
  std::string timeseries_csv() const { return {}; }
  bool write_prometheus(const std::string& path) const;
  bool write_json(const std::string& path) const;
  bool write_csv(const std::string& path) const;
  bool write_timeseries_csv(const std::string& path) const;
  template <typename Fn>
  void for_each_timeseries(Fn&&) const {}
  void merge(const MetricRegistry&) noexcept {}
  static MetricRegistry& global();
  static MetricRegistry& current() noexcept { return global(); }

 private:
  Counter c_;
  Gauge g_;
  Histogram h_;
  TimeSeries t_;
};

class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricRegistry&) noexcept {}
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;
};

inline bool recording_series() noexcept { return false; }
inline bool set_recording_series(bool) noexcept { return false; }

#endif  // PHI_TELEMETRY_OFF

/// Shorthand for MetricRegistry::current(): the calling thread's scoped
/// registry when one is installed (see ScopedRegistry), else the global.
inline MetricRegistry& registry() { return MetricRegistry::current(); }

}  // namespace phi::telemetry
