// bench_ledger — the performance ledger. Runs one pinned workload in this
// process: a serial reference run (the warm-up, and the baseline a
// sharded run must reproduce), an untimed sharded warm-up for sharded
// workloads, then timed repetitions back to back at the same seed for
// --seconds, and with --traced one more run with every
// layer proxied and the event loop profiled. Prints every metric as
// `name value unit`, writes ledger_<workload>[_traced].json under --out,
// and exits nonzero when any run failed (threw, broke an invariant, or
// digested differently from the reference).
//
//   bench_ledger --list
//   bench_ledger --workload NAME [--seed N] [--seconds S] [--traced]
//                [--out DIR] [--horizon-s H]
//
// End-to-end metrics are medians over the timed repetitions, measured
// with tracing off; per-layer metrics come from the traced run. See
// README.md for the metric table and how each row maps onto the layers.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "flow/tracegen.hpp"
#include "sim/sharding.hpp"
#include "sim/topology.hpp"
#include "workloads.hpp"

using namespace phi;
using ledger::CallStats;
using ledger::RunResult;
using ledger::Workload;

namespace {

constexpr int kSetupCalls = 3;  ///< one-off setup timings: median of 3
constexpr int kProbeCalls = 3;  ///< host probe: 3 before + 3 after

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string out = "bench_results";
  double horizon_s = 0;  ///< 0 = the workload's pinned horizon
};

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "bench_ledger: %s\n", msg);
  std::fprintf(stderr,
               "usage: bench_ledger --list\n"
               "       bench_ledger --workload NAME [--seed N] [--seconds S] "
               "[--traced] [--out DIR] [--horizon-s H]\n");
  std::exit(2);
}

double parse_number(const char* flag, const char* v, double min) {
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno != 0 || !(d >= min) || d > 1e12) {
    std::fprintf(stderr, "bench_ledger: %s wants a number >= %g, got '%s'\n",
                 flag, min, v);
    std::exit(2);
  }
  return d;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--list") {
      for (const Workload& w : ledger::workloads())
        std::printf("%-22s %s\n", w.name, w.why);
      std::exit(0);
    } else if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = static_cast<std::uint64_t>(parse_number("--seed", value(), 0));
    } else if (a == "--seconds") {
      o.seconds = parse_number("--seconds", value(), 0);
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--horizon-s") {
      o.horizon_s = parse_number("--horizon-s", value(), 0.001);
    } else if (a == "--help" || a == "-h") {
      usage(nullptr);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(ledger::now_ns() - t0) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile, as Python's statistics.quantiles(v, n=4)
/// (the default "exclusive" method) computes them.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<long>(v.size());
  const auto q = [&](long i) {
    const long m = ld + 1;
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {q(1), q(3)};
}

volatile std::uint64_t g_probe_sink = 0;  ///< keeps the probe's work live

/// A fixed kernel that touches no repository code: pseudo-random reads
/// and writes over a 4 MiB table. Its time moves only with the host
/// (frequency, cache and memory contention), so readers can tell host
/// drift apart from a regression.
double host_probe_s() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 20, 1u);
  const std::uint32_t mask = (1u << 20) - 1;
  const std::uint64_t t0 = ledger::now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & mask];
    table[(x >> 32) & mask] += static_cast<std::uint32_t>(acc);
  }
  const double s = seconds_since(t0);
  g_probe_sink = acc;
  return s;
}

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

#ifndef PHI_TELEMETRY_OFF
/// Sum of a counter over all its label sets (e.g. drops over all links).
std::uint64_t counter_total(const telemetry::MetricRegistry& reg,
                            const std::string& name) {
  std::istringstream csv(reg.csv());
  std::string line;
  const std::string prefix = "counter," + name + ",";
  std::uint64_t total = 0;
  while (std::getline(csv, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    // counter,name,labels,value,...  (labels never contain commas)
    const std::size_t labels_end = line.find(',', prefix.size());
    if (labels_end == std::string::npos) continue;
    total += std::strtoull(line.c_str() + labels_end + 1, nullptr, 10);
  }
  return total;
}
#endif

/// The session-trace config the engine derives from a churn spec
/// (phi/scenario.cpp), so tracegen can be timed on its own.
flow::SessionConfig session_config(const core::ScenarioSpec& spec,
                                   std::size_t endpoints) {
  flow::SessionConfig c;
  c.arrivals_per_s = spec.churn.arrivals_per_s;
  c.horizon_s = util::to_seconds(spec.warmup + spec.duration);
  c.ranks = endpoints;
  c.zipf_s = spec.churn.zipf_s;
  c.pareto_alpha = spec.churn.pareto_alpha;
  c.min_bytes = spec.churn.min_bytes;
  c.max_bytes = spec.churn.max_bytes;
  c.max_sessions = spec.churn.max_sessions;
  c.seed = util::derive_seed(spec.seed, core::kChurnStream);
  return c;
}

struct SetupCosts {
  double topology_build_s = 0;
  double tracegen_s = 0;
  double shard_plan_s = 0;
  double window_ms = 0;
  double load_imbalance = 1;
};

/// One-off timed calls to the three set-up stages the engine runs before
/// the first PolicyFactory call, plus the offered-load split the shard
/// plan implies (max/mean per shard: session bytes for churn, senders
/// for on/off).
SetupCosts time_setup(const core::ScenarioSpec& spec) {
  SetupCosts c;
  telemetry::MetricRegistry throwaway;
  telemetry::ScopedRegistry scope(throwaway);
  std::vector<double> build, gen, plan_s;
  std::unique_ptr<sim::Topology> topo;
  for (int i = 0; i < kSetupCalls; ++i) {
    topo.reset();
    const std::uint64_t t0 = ledger::now_ns();
    topo = sim::make_topology(spec.topology);
    build.push_back(seconds_since(t0));
  }
  std::vector<flow::Session> trace;
  if (spec.churn.enabled()) {
    const flow::SessionConfig cfg =
        session_config(spec, topo->endpoint_count());
    for (int i = 0; i < kSetupCalls; ++i) {
      const std::uint64_t t0 = ledger::now_ns();
      trace = flow::generate_sessions(cfg);
      gen.push_back(seconds_since(t0));
    }
  }
  sim::ShardPlan plan = sim::plan_shards(topo->net(), 1);
  if (spec.sharding.shards > 1) {
    for (int i = 0; i < kSetupCalls; ++i) {
      const std::uint64_t t0 = ledger::now_ns();
      plan = sim::plan_shards(topo->net(), spec.sharding.shards);
      plan_s.push_back(seconds_since(t0));
    }
  }
  c.topology_build_s = median(build);
  c.tracegen_s = median(gen);
  c.shard_plan_s = median(plan_s);
  c.window_ms = util::to_millis(plan.window);

  std::vector<double> load(static_cast<std::size_t>(plan.shards), 0.0);
  const auto shard_of_endpoint = [&](std::size_t ep) {
    return static_cast<std::size_t>(
        plan.node_shard.at(topo->endpoint(ep).tx->id()));
  };
  if (spec.churn.enabled()) {
    for (const flow::Session& s : trace)
      load[shard_of_endpoint(s.rank % topo->endpoint_count())] +=
          static_cast<double>(s.bytes);
  } else {
    for (std::size_t ep = 0; ep < topo->endpoint_count(); ++ep)
      load[shard_of_endpoint(ep)] += 1.0;
  }
  const double total = std::accumulate(load.begin(), load.end(), 0.0);
  if (total > 0)
    c.load_imbalance = *std::max_element(load.begin(), load.end()) /
                       (total / static_cast<double>(load.size()));
  return c;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::vector<double> samples;  ///< per-repetition values, when repeated
};

Metric repeated(std::string name, std::vector<double> samples,
                std::string unit) {
  return {std::move(name), median(samples), std::move(unit),
          std::move(samples)};
}

/// The counters behind every run: what was attempted, what failed, and
/// the reference digest each later run must reproduce.
struct RunLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool have_reference = false;
  std::uint64_t reference_digest = 0;
  std::vector<std::string> errors;
};

/// Run once and judge the outcome: false when the run threw, broke an
/// invariant, or digested differently from the reference (the first run
/// that passed).
bool judged_run(const Workload& w, const core::ScenarioSpec& spec,
                ledger::LayerProbes* probes, const char* label, RunLog& log,
                RunResult& out) {
  ++log.attempted;
  std::string err;
  try {
    out = ledger::run_once(w, spec, probes);
    err = ledger::check_invariants(w, out);
    if (err.empty() && !log.have_reference) {
      log.have_reference = true;
      log.reference_digest = out.digest;
    } else if (err.empty() && out.digest != log.reference_digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "digest %016" PRIx64 " != reference %016" PRIx64,
                    out.digest, log.reference_digest);
      err = buf;
    }
  } catch (const std::exception& e) {
    err = std::string("threw: ") + e.what();
  }
  if (err.empty()) return true;
  ++log.failed;
  log.errors.push_back(std::string(label) + ": " + err);
  std::fprintf(stderr, "bench_ledger: %s run failed: %s\n", label,
               err.c_str());
  return false;
}

void add_layer_metrics(std::vector<Metric>& out, const RunResult& t,
                       const ledger::LayerProbes& p, const SetupCosts& setup,
                       double untraced_median_s, double reference_wall_s) {
  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit, {}});
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const core::ScenarioMetrics& m = t.metrics;

  add("setup.topology_build_s", setup.topology_build_s, "s");
  add("setup.tracegen_s", setup.tracegen_s, "s");
  add("setup.shard_plan_s", setup.shard_plan_s, "s");

  add("sim.scheduler.events", count(m.events_executed), "count");
  add("sim.scheduler.events_per_s",
      untraced_median_s > 0 ? count(m.events_executed) / untraced_median_s
                            : 0.0,
      "1/s");
#ifndef PHI_TELEMETRY_OFF
  using LP = telemetry::LoopProfile;
  const LP& prof = m.capture->profile;
  const auto ns_per = [&prof](unsigned s) {
    return prof.sampled(s) != 0 ? static_cast<double>(prof.sampled_ns(s)) /
                                      static_cast<double>(prof.sampled(s))
                                : 0.0;
  };
  const std::uint64_t advances = prof.events(LP::kWheelAdvance);
  add("sim.scheduler.wheel_advances", count(advances), "count");
  add("sim.scheduler.events_per_advance",
      advances != 0 ? count(m.events_executed) / count(advances) : 0.0,
      "ratio");
  add("sim.scheduler.callbacks", count(prof.events(LP::kCallback)), "count");
  add("sim.scheduler.callback_ns", ns_per(LP::kCallback), "ns");
  add("sim.link.deliveries", count(prof.events(LP::kDelivery)), "count");
  add("sim.link.delivery_ns", ns_per(LP::kDelivery), "ns");
  add("sim.link.tx_completes", count(prof.events(LP::kTxComplete)), "count");
  add("sim.link.tx_complete_ns", ns_per(LP::kTxComplete), "ns");
  const telemetry::MetricRegistry& reg = *t.registry;
  add("sim.link.packets_dropped",
      count(counter_total(reg, "sim.link.packets_dropped")), "count");
#endif

  const CallStats on_ack = ledger::sum(p.cc_on_ack);
  add("tcp.cc.on_ack_calls", count(on_ack.calls), "count");
  add("tcp.cc.on_ack_ns", on_ack.ns_per_call(), "ns");
#ifndef PHI_TELEMETRY_OFF
  add("tcp.sender.packets_sent",
      count(counter_total(reg, "tcp.sender.packets_sent")), "count");
  add("tcp.sender.retransmits",
      count(counter_total(reg, "tcp.sender.retransmits")), "count");
  add("tcp.sender.timeouts", count(counter_total(reg, "tcp.sender.timeouts")),
      "count");
  add("tcp.sink.acks_sent", count(counter_total(reg, "tcp.sink.acks_sent")),
      "count");
  add("tcp.sink.out_of_order",
      count(counter_total(reg, "tcp.sink.out_of_order")), "count");
#endif

  const core::ChurnMetrics& c = m.churn;
  add("churn.offered", count(c.offered), "count");
  add("churn.completed", count(c.completed), "count");
  add("churn.censored", count(c.offered - c.completed), "count");
  add("churn.deferred", count(c.deferred), "count");
  add("churn.wait_mean_s", c.wait_mean_s, "s");
  add("churn.fct_p50_s", c.fct_p50_s, "s");

  const CallStats client = ledger::sum(p.client);
  add("phi.client.calls", count(client.calls), "count");
  add("phi.client.ns", client.ns_per_call(), "ns");
  const CallStats agg_lookup = ledger::sum(p.agg_lookup);
  const CallStats agg_report = ledger::sum(p.agg_report);
  add("phi.aggregator.lookups", count(agg_lookup.calls), "count");
  add("phi.aggregator.lookup_ns", agg_lookup.ns_per_call(), "ns");
  add("phi.aggregator.reports", count(agg_report.calls), "count");
  add("phi.aggregator.report_ns", agg_report.ns_per_call(), "ns");
  add("phi.aggregator.flushes", count(t.phi.agg_flushes), "count");
  add("phi.aggregator.staleness_mean_s",
      t.phi.stale_n != 0 ? t.phi.stale_sum_s / count(t.phi.stale_n) : 0.0,
      "s");
  add("phi.server.lookups", count(p.root_lookup.calls), "count");
  add("phi.server.lookup_ns", p.root_lookup.ns_per_call(), "ns");
  add("phi.server.reports", count(p.root_report.calls), "count");
  add("phi.server.report_ns", p.root_report.ns_per_call(), "ns");
  add("phi.server.busy_s", p.root_lookup.busy_s() + p.root_report.busy_s(),
      "s");

  add("sim.sharding.shards", m.shards_used, "count");
  add("sim.sharding.window_ms", setup.window_ms, "ms");
  add("sim.sharding.boundary_messages", count(m.boundary_messages), "count");
  add("sim.sharding.load_imbalance", setup.load_imbalance, "ratio");
  add("sim.sharding.speedup",
      untraced_median_s > 0 ? reference_wall_s / untraced_median_s : 0.0,
      "ratio");
#ifndef PHI_TELEMETRY_OFF
  add("sim.sharding.windows", count(counter_total(reg, "sim.shard.windows")),
      "count");
  add("sim.sharding.boundary_spills",
      count(counter_total(reg, "sim.shard.boundary_spills")), "count");
  // Each shard's profile clocks its own run_until calls.
  add("sim.sharding.busy_share",
      static_cast<double>(prof.wall_ns()) * 1e-9 /
          (m.shards_used * t.wall_s),
      "ratio");
#endif
  add("trace.overhead",
      untraced_median_s > 0 ? t.wall_s / untraced_median_s : 0.0, "ratio");
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

bool write_ledger(const std::string& path, const Options& o,
                  const Workload& w, double horizon_s, const RunLog& log,
                  const std::vector<Metric>& metrics) {
  std::string j = "{";
  j += "\"workload\":" + json_string(w.name);
  j += ",\"traced\":" + std::string(o.traced ? "true" : "false");
  j += ",\"seed\":" + std::to_string(o.seed);
  j += ",\"seconds\":" + json_number(o.seconds);
  j += ",\"horizon_s\":" + json_number(horizon_s);
  j += ",\"shards\":" + std::to_string(w.shards);
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, log.reference_digest);
  j += ",\"digest\":" + json_string(digest);
  j += ",\"runs\":" + std::to_string(log.attempted);
  j += ",\"failed_runs\":" + std::to_string(log.failed);
  j += ",\"correct\":" + std::string(log.failed == 0 ? "true" : "false");
  j += ",\"errors\":[";
  for (std::size_t i = 0; i < log.errors.size(); ++i) {
    if (i != 0) j += ',';
    j += json_string(log.errors[i]);
  }
  j += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) j += ',';
    j += json_string(m.name);
    j += ":{\"value\":" + json_number(m.value);
    j += ",\"unit\":" + json_string(m.unit);
    if (!m.samples.empty()) {
      const auto [q1, q3] = quartiles(m.samples);
      j += ",\"q1\":" + json_number(q1) + ",\"q3\":" + json_number(q3) +
           ",\"n\":" + std::to_string(m.samples.size()) + ",\"samples\":[";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        if (k != 0) j += ',';
        j += json_number(m.samples[k]);
      }
      j += "]";
    }
    j += "}";
  }
  j += "}}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(j.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload* wp = ledger::find_workload(o.workload);
  if (wp == nullptr) usage(("unknown workload " + o.workload).c_str());
  const Workload& w = *wp;
  const double horizon_s = o.horizon_s > 0 ? o.horizon_s : w.horizon_s;

  std::vector<double> probe;
  for (int i = 0; i < kProbeCalls; ++i) probe.push_back(host_probe_s());

  RunLog log;
  RunResult result;
  // The serial reference: warms caches and allocator, anchors the digest
  // every later run must reproduce, and is the speedup's numerator.
  double reference_wall_s = 0;
  if (judged_run(w, ledger::make_spec(w, o.seed, 1, horizon_s, false),
                 nullptr, "reference", log, result))
    reference_wall_s = result.wall_s;

  std::vector<double> wall, setup, flows_per_s;
  const core::ScenarioSpec spec =
      ledger::make_spec(w, o.seed, w.shards, horizon_s, false);
  // The first sharded run pays for fresh shard threads' allocator arenas;
  // keep it out of the timed set.
  if (w.shards > 1) judged_run(w, spec, nullptr, "warm-up", log, result);
  const std::uint64_t loop_start = ledger::now_ns();
  do {
    if (judged_run(w, spec, nullptr, "timed", log, result)) {
      wall.push_back(result.wall_s);
      setup.push_back(result.setup_s);
      flows_per_s.push_back(static_cast<double>(result.flows) /
                            result.wall_s);
    }
  } while (seconds_since(loop_start) < o.seconds);
  const double wall_median = median(wall);

  std::vector<Metric> metrics;
  metrics.push_back(repeated("wall_s", wall, "s"));
  metrics.push_back(repeated("setup_s", setup, "s"));
  metrics.push_back(repeated("flows_per_s", flows_per_s, "flows/s"));

  if (o.traced) {
    ledger::LayerProbes probes;
    RunResult traced;
    if (judged_run(w, ledger::make_spec(w, o.seed, w.shards, horizon_s, true),
                   &probes, "traced", log, traced)) {
      add_layer_metrics(metrics, traced, probes, time_setup(spec),
                        wall_median, reference_wall_s);
    }
  }

  for (int i = 0; i < kProbeCalls; ++i) probe.push_back(host_probe_s());
  metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB", {}});
  metrics.push_back(
      {"failed_runs", static_cast<double>(log.failed), "runs", {}});
  metrics.push_back({"host.probe_s", median(probe), "s", {}});

  for (const Metric& m : metrics)
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("# workload %s seed %" PRIu64 " horizon %g s: %" PRIu64
              " runs (%zu timed), digest %016" PRIx64 "\n",
              w.name, o.seed, horizon_s, log.attempted, wall.size(),
              log.reference_digest);

  std::error_code ec;
  std::filesystem::create_directories(o.out, ec);
  const std::string path = o.out + "/ledger_" + w.name +
                           (o.traced ? "_traced" : "") + ".json";
  if (ec || !write_ledger(path, o, w, horizon_s, log, metrics)) {
    std::fprintf(stderr, "bench_ledger: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", path.c_str());
  return log.failed == 0 ? 0 : 1;
}
