// Telemetry subsystem tests: registry identity invariants, histogram
// accuracy against exact order statistics, exporter formats, event-log
// JSON/JSONL round-trips (via the minimal JSON parser below), and the
// PHI_TELEMETRY_OFF contract. The whole file compiles in both modes; the
// sections that inspect recorded values are gated on the real
// implementation, and a dedicated section pins down the stubbed
// behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace phi::telemetry {
namespace {

// --- Minimal JSON parser (objects, arrays, strings, numbers, literals) --
// Just enough to round-trip what the exporters emit; throws via ADD_FAILURE
// + nullptr on malformed input.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* at(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // decode not needed for round-trip checks
            out += '?';
            break;
          default: return false;
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        JsonValue v;
        if (!value(v)) return false;
        out.object.emplace(std::move(key), std::move(v));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
      while (true) {
        JsonValue v;
        if (!value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ',') { ++pos_; continue; }
        if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return string(out.str);
    }
    if (literal("true")) { out.kind = JsonValue::Kind::kBool; out.boolean = true; return true; }
    if (literal("false")) { out.kind = JsonValue::Kind::kBool; out.boolean = false; return true; }
    if (literal("null")) { out.kind = JsonValue::Kind::kNull; return true; }
    // number
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E'))
      ++end;
    if (end == pos_) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue parse_or_fail(const std::string& text) {
  JsonValue v;
  JsonParser p(text);
  EXPECT_TRUE(p.parse(v)) << "malformed JSON: " << text.substr(0, 200);
  return v;
}

#ifndef PHI_TELEMETRY_OFF

// ---------------- registry identity invariants ----------------

TEST(MetricRegistry, SameNameAndLabelsYieldSameInstrument) {
  MetricRegistry reg;
  Counter& a = reg.counter("x.count", {{"k", "v"}});
  Counter& b = reg.counter("x.count", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricRegistry, LabelOrderIsCanonicalized) {
  MetricRegistry reg;
  Counter& a = reg.counter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricRegistry, DifferentLabelsAreDifferentInstruments) {
  MetricRegistry reg;
  Counter& a = reg.counter("x", {{"k", "1"}});
  Counter& b = reg.counter("x", {{"k", "2"}});
  Counter& c = reg.counter("x");
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistry, KindsShareNamespaceWithoutCollision) {
  MetricRegistry reg;
  reg.counter("same.name");
  reg.gauge("same.name");
  reg.histogram("same.name");
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistry, ResetValuesKeepsHandlesValid) {
  MetricRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(7);
  g.set(2.5);
  h.observe(1.0);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.add();  // the old handle still points at the live instrument
  EXPECT_EQ(reg.counter("c").value(), 1u);
}

// ---------------- histogram accuracy ----------------

TEST(Histogram, QuantilesTrackExactOrderStatisticsOn10k) {
  Histogram h;  // default log buckets
  util::Rng rng(42);
  std::vector<double> xs;
  xs.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    xs.push_back(rng.uniform(0.0, 1000.0));
    h.observe(xs.back());
  }
  std::sort(xs.begin(), xs.end());
  auto exact = [&](double p) {
    return xs[static_cast<std::size_t>(p * (xs.size() - 1))];
  };
  // P² is a streaming estimate: allow a few percent of relative error.
  EXPECT_NEAR(h.p50() / exact(0.50), 1.0, 0.02);
  EXPECT_NEAR(h.p90() / exact(0.90), 1.0, 0.02);
  EXPECT_NEAR(h.p99() / exact(0.99), 1.0, 0.05);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.min(), xs.front());
  EXPECT_DOUBLE_EQ(h.max(), xs.back());
  EXPECT_NEAR(h.mean(), 500.0, 25.0);
}

TEST(Histogram, BucketCountsAreConsistent) {
  Histogram h({/*first_bound=*/1.0, /*growth=*/2.0, /*buckets=*/4});
  // Bounds: 1, 2, 4, 8 (+Inf overflow).
  ASSERT_EQ(h.bucket_bounds().size(), 4u);
  ASSERT_EQ(h.bucket_counts().size(), 5u);
  for (double x : {0.5, 1.5, 3.0, 6.0, 100.0}) h.observe(x);
  std::uint64_t total = 0;
  for (auto c : h.bucket_counts()) total += c;
  EXPECT_EQ(total, h.count());
  EXPECT_EQ(h.bucket_counts()[0], 1u);  // 0.5 <= 1
  EXPECT_EQ(h.bucket_counts()[1], 1u);  // 1.5 <= 2
  EXPECT_EQ(h.bucket_counts()[4], 1u);  // 100 -> +Inf
}

// ---------------- exporters ----------------

TEST(Exporters, PrometheusTextShape) {
  MetricRegistry reg;
  reg.counter("sim.link.packets_tx", {{"link", "bottleneck"}}).add(5);
  reg.gauge("sim.scheduler.heap_size").set(17);
  reg.histogram("lat", {}, {1.0, 2.0, 2}).observe(1.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE sim_link_packets_tx counter"),
            std::string::npos);
  EXPECT_NE(text.find("sim_link_packets_tx{link=\"bottleneck\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("sim_scheduler_heap_size 17"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_count 1"), std::string::npos);
}

TEST(Exporters, JsonRoundTripsThroughParser) {
  MetricRegistry reg;
  reg.counter("c.one", {{"k", "a\"b"}}).add(2);  // escaping exercised
  reg.gauge("g.one").set(1.25);
  reg.histogram("h.one", {}, {1.0, 2.0, 3}).observe(2.5);
  const JsonValue root = parse_or_fail(reg.json());
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* counters = root.at("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->array.size(), 1u);
  EXPECT_EQ(counters->array[0].at("name")->str, "c.one");
  EXPECT_EQ(counters->array[0].at("value")->number, 2.0);
  EXPECT_EQ(counters->array[0].at("labels")->at("k")->str, "a\"b");
  const JsonValue* hists = root.at("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->array.size(), 1u);
  EXPECT_EQ(hists->array[0].at("count")->number, 1.0);
}

TEST(Exporters, CsvHasHeaderAndOneRowPerInstrument) {
  MetricRegistry reg;
  reg.counter("a").add();
  reg.gauge("b").set(1);
  const std::string csv = reg.csv();
  EXPECT_EQ(csv.find("kind,name,labels,value,count,sum,min,max,p50,p90,p99"),
            0u);
  EXPECT_EQ(static_cast<int>(std::count(csv.begin(), csv.end(), '\n')), 3);
}

#else  // PHI_TELEMETRY_OFF — pin down the stubbed contract.

TEST(TelemetryOff, EmitReachesNoView) {
  EventLog log(kAllCategories, /*trace_one_in=*/1, /*seed=*/0, 16);
  EXPECT_EQ(set_event_log(&log), nullptr);  // ignored
  EXPECT_EQ(event_log(), nullptr);
  EXPECT_EQ(trace_of(7), 0u);
  EXPECT_EQ(next_bind(), 0u);
  const std::uint64_t kept = flight().recorded();
  emit({.name = "tcp.rto", .cat = Category::kTcp, .trace = 7, .flow = 7});
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(flight().recorded(), kept);
}

TEST(TelemetryOff, RegistryAcceptsUpdatesAndStaysEmpty) {
  MetricRegistry& reg = registry();
  Counter& c = reg.counter("anything", {{"k", "v"}});
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  reg.gauge("g").set(5.0);
  Histogram& h = reg.histogram("h");
  h.observe(1.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.prometheus_text(), "");
  EXPECT_EQ(reg.json(), "{}\n");
}

#endif  // PHI_TELEMETRY_OFF

// Compiles and runs identically in both modes: the instrumentation
// pattern every component uses must be valid regardless of build flavor.
TEST(TelemetryBothModes, InstrumentationPatternCompiles) {
  Counter* ctr = &registry().counter("bothmodes.count");
  ctr->add();
  emit({.name = "bothmodes.tick", .cat = Category::kBench,
        .trace = trace_of(1), .k0 = "i", .a0 = 1.0});
  SUCCEED();
}

// ---------------- event log rendering (both modes) ----------------

TEST(EventLog, ChromeJsonRoundTrip) {
  EventLog log(kAllCategories, 0, 0, 16);
  log.record({.name = "tcp.rto", .cat = Category::kTcp, .t0 = util::seconds(1),
              .trace = 7, .flow = 7, .k0 = "cwnd", .a0 = 12.5});
  log.record({.name = "monitor.utilization", .cat = Category::kLink,
              .phase = 'C', .t0 = util::seconds(2), .k0 = "value", .a0 = 0.75});
  log.record({.name = "link.transit", .cat = Category::kPacket, .phase = 'X',
              .t0 = 1000, .t1 = 3500, .trace = 7});
  log.record({.name = "hop", .cat = Category::kContext, .phase = 's',
              .t0 = 2000, .trace = 7, .bind = 3});
  log.record({.name = "hop", .cat = Category::kContext, .phase = 'f',
              .t0 = 3000, .trace = 7, .bind = 3});
  const JsonValue root = parse_or_fail(log.chrome_json());
  const JsonValue* events = root.at("traceEvents");
  ASSERT_NE(events, nullptr);
  // One track-name record for flow 7, then the five events in order.
  ASSERT_EQ(events->array.size(), 6u);
  const JsonValue& track = events->array[0];
  EXPECT_EQ(track.at("ph")->str, "M");
  EXPECT_EQ(track.at("args")->at("name")->str, "flow 7");
  const JsonValue& rto = events->array[1];
  EXPECT_EQ(rto.at("name")->str, "tcp.rto");
  EXPECT_EQ(rto.at("ph")->str, "i");
  EXPECT_EQ(rto.at("s")->str, "t");  // scoped to the flow's track
  EXPECT_EQ(rto.at("tid")->number, 7.0);
  // ts is microseconds in the Chrome format; the event was at 1 s.
  EXPECT_DOUBLE_EQ(rto.at("ts")->number, 1e6);
  EXPECT_DOUBLE_EQ(rto.at("args")->at("cwnd")->number, 12.5);
  const JsonValue& counter = events->array[2];
  EXPECT_EQ(counter.at("ph")->str, "C");
  EXPECT_EQ(counter.at("tid")->number, 0.0);
  EXPECT_DOUBLE_EQ(counter.at("args")->at("value")->number, 0.75);
  const JsonValue& slice = events->array[3];
  EXPECT_EQ(slice.at("ph")->str, "X");
  EXPECT_DOUBLE_EQ(slice.at("dur")->number, 2.5);
  EXPECT_EQ(slice.at("args"), nullptr);  // no keys, no args object
  EXPECT_EQ(events->array[4].at("ph")->str, "s");
  EXPECT_EQ(events->array[5].at("ph")->str, "f");
  EXPECT_EQ(events->array[5].at("bp")->str, "e");
  EXPECT_EQ(events->array[4].at("id")->number,
            events->array[5].at("id")->number);
}

TEST(EventLog, JsonlEveryLineParses) {
  EventLog log(kAllCategories, 0, 0, 16);
  for (int i = 0; i < 5; ++i)
    log.record({.name = "tick", .cat = Category::kBench, .t0 = i * 1000,
                .flow = 3, .k0 = "i", .a0 = static_cast<double>(i)});
  const std::string jsonl = log.jsonl();
  std::size_t start = 0, lines = 0;
  while (start < jsonl.size()) {
    const std::size_t end = jsonl.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const JsonValue v = parse_or_fail(jsonl.substr(start, end - start));
    EXPECT_EQ(v.at("name")->str, "tick");
    EXPECT_EQ(v.at("cat")->str, "bench");
    EXPECT_EQ(v.at("flow")->number, 3.0);
    EXPECT_EQ(v.at("ts_ns")->number, static_cast<double>(lines * 1000));
    EXPECT_EQ(v.at("args")->at("i")->number, static_cast<double>(lines));
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

TEST(EventLog, CategoryMaskFilters) {
  EventLog log(mask_of(Category::kTcp), 0, 0, 16);
  log.record({.name = "dropped", .cat = Category::kLink});
  log.record({.name = "kept", .cat = Category::kTcp});
  // A traced event is kept whatever its category.
  log.record({.name = "traced", .cat = Category::kLink, .trace = 4});
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_STREQ(log.events()[0].name, "kept");
  EXPECT_STREQ(log.events()[1].name, "traced");
}

TEST(EventLog, OverflowCountsDroppedAndClearRearms) {
  EventLog log(kAllCategories, 0, 0, /*capacity=*/3);
  for (int i = 0; i < 10; ++i)
    log.record({.name = "e", .cat = Category::kBench, .t0 = i});
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 7u);
  EXPECT_EQ(log.next_bind(), 1u);
  log.clear();
  EXPECT_EQ(log.events().size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.next_bind(), 1u);  // binding ids restart too
  log.record({.name = "again", .cat = Category::kBench});
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_STREQ(log.events()[0].name, "again");
}

TEST(EventLog, ReservesNothingUnlessItCanRecord) {
  const EventLog idle(/*mask=*/0, /*trace_one_in=*/0, 0, 1 << 20);
  EXPECT_EQ(idle.events().capacity(), 0u);
  const EventLog tracing(/*mask=*/0, /*trace_one_in=*/64, 0, 1 << 10);
  EXPECT_GE(tracing.events().capacity(), 1u << 10);
}

}  // namespace
}  // namespace phi::telemetry
