// run_scenario — the unified bench driver: run any named scenario preset
// (dumbbell or parking lot) under all-Cubic senders and emit the standard
// CSV + metrics artifacts. Usage:
//
//   run_scenario --list
//   run_scenario <preset> [key=value ...] [--runs N] [--shards N]
//                [--trace-flows[=N]] [--timeseries-dt[=S]] [--profile]
//
// `key=value` overrides tweak the preset (seed, duration_s, pairs,
// rate_mbps, hops, ... — see docs/SCENARIOS.md); repetitions are seeded
// with util::derive_seed(seed, rep) and run PHI_BENCH_JOBS-wide.
//
// The observability flags are strictly additive: --trace-flows samples
// 1-in-N flows (default every flow) into a Chrome-trace JSON artifact,
// --timeseries-dt snapshots queue/utilization/cwnd every S simulated
// seconds (default 0.1) into a tidy CSV, and --profile prints the event
// loop's per-event-kind time breakdown. With none of them, the run (and
// every artifact) is byte-identical to a build without telemetry.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "phi/sweep.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

int list_presets() {
  std::printf("available scenario presets:\n\n");
  for (const auto& p : core::presets::registry()) {
    std::printf("  %-22s [%s, %zu senders]  %s\n", p.name.c_str(),
                sim::topology_class(p.spec.topology), p.spec.sender_count(),
                p.summary.c_str());
  }
  std::printf(
      "\nrun one with: run_scenario <preset> [key=value ...] [--runs N]\n"
      "overrides: seed duration_s warmup_s ecn on_bytes off_s "
      "start_with_off\n"
      "  churn: churn_per_s churn_zipf churn_alpha churn_min_bytes "
      "churn_max_bytes churn_slots churn_cap\n"
      "  dumbbell: pairs rate_mbps rtt_ms queue jitter_ms buffer_bdp\n"
      "  parking lot: hops cross_per_hop long_flows hop_rate_mbps "
      "hop_delay_ms buffer_bdp\n"
      "  fat tree: k host_rate_mbps fabric_rate_mbps core_rate_mbps "
      "core_delay_ms buffer_bdp\n"
      "  wan graph: sites hosts_per_site chords wan_seed min_rate_mbps "
      "max_rate_mbps min_delay_ms max_delay_ms buffer_bdp\n");
  return 0;
}

/// Parses the whole of `s` as a decimal int >= 1. Trailing characters
/// ("4x"), exponents ("1e3"), signs and out-of-range values all fail.
bool parse_count(const char* s, int& out) {
  const char* end = s + std::strlen(s);
  int v = 0;
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || p != end || v < 1) return false;
  out = v;
  return true;
}

std::vector<std::string> metrics_row(const std::string& label,
                                     const core::ScenarioMetrics& m) {
  return {label,
          util::TextTable::num(m.throughput_bps, 0),
          util::TextTable::num(m.mean_queue_delay_s * 1e3, 2),
          util::TextTable::num(m.loss_rate, 5),
          util::TextTable::num(m.utilization, 3),
          util::TextTable::num(m.mean_rtt_s * 1e3, 2),
          std::to_string(m.connections),
          std::to_string(m.timeouts),
          util::TextTable::num(m.power_l(), 0)};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: run_scenario --list | <preset> [key=value ...] "
                 "[--runs N] [--shards N] [--trace-flows[=N]] "
                 "[--timeseries-dt[=S]] [--profile]\n");
    return argc < 2 ? 2 : 0;
  }
  if (std::strcmp(argv[1], "--list") == 0) return list_presets();

  const core::presets::Preset* preset = core::presets::find(argv[1]);
  if (preset == nullptr) {
    std::string valid;
    for (const auto& p : core::presets::registry()) {
      if (!valid.empty()) valid += ", ";
      valid += p.name;
    }
    std::fprintf(stderr, "unknown preset '%s'; valid presets: %s\n",
                 argv[1], valid.c_str());
    return 2;
  }
  // Artifacts use the canonical (dash) spelling even when the preset was
  // named with underscores, so golden filenames stay stable.
  const std::string name = preset->name;

  core::ScenarioSpec spec = preset->spec;
  int runs = bench::scale_from_env() == bench::Scale::kFull ? 4 : 2;
  for (int a = 2; a < argc; ++a) {
    if (std::strcmp(argv[a], "--runs") == 0 && a + 1 < argc) {
      if (!parse_count(argv[++a], runs)) {
        std::fprintf(stderr, "--runs wants an integer >= 1, got '%s'\n",
                     argv[a]);
        return 2;
      }
      continue;
    }
    if (std::strcmp(argv[a], "--shards") == 0 && a + 1 < argc) {
      if (!parse_count(argv[++a], spec.sharding.shards)) {
        std::fprintf(stderr, "--shards wants an integer >= 1, got '%s'\n",
                     argv[a]);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[a], "--trace-flows", 13) == 0) {
      int one_in = 1;
      if (argv[a][13] == '=' && !parse_count(argv[a] + 14, one_in)) {
        std::fprintf(stderr, "--trace-flows wants an integer >= 1\n");
        return 2;
      }
      spec.telemetry.trace_one_in = static_cast<std::uint32_t>(one_in);
      continue;
    }
    if (std::strncmp(argv[a], "--timeseries-dt", 15) == 0) {
      double dt_s = 0.1;
      if (argv[a][15] == '=') dt_s = std::atof(argv[a] + 16);
      if (!(dt_s > 0)) {
        std::fprintf(stderr, "--timeseries-dt wants seconds > 0\n");
        return 2;
      }
      spec.telemetry.timeseries_dt = util::from_seconds(dt_s);
      continue;
    }
    if (std::strcmp(argv[a], "--profile") == 0) {
      spec.telemetry.profile = true;
      continue;
    }
    std::string err;
    if (!core::presets::apply_override(spec, argv[a], &err)) {
      std::fprintf(stderr, "bad override: %s\n", err.c_str());
      return 2;
    }
  }

  bench::phase("setup");
  bench::banner(("Scenario driver: " + name).c_str());
  std::printf("topology %s, %zu senders, %zu path(s), %d repetition(s)\n",
              sim::topology_class(spec.topology), spec.sender_count(),
              sim::path_count(spec.topology), runs);
  const sim::TopologyShape shape = sim::topology_shape(spec.topology);
  std::printf("shape: %zu node(s), %zu link(s), %zu endpoint(s), "
              "%zu monitored path(s)\n",
              shape.nodes, shape.links, shape.endpoints, shape.paths);
  if (spec.churn.enabled())
    std::printf("churn: %.0f arrivals/s, zipf %.2f, pareto %.2f, "
                "%g..%g bytes, %zu slot(s)/endpoint\n",
                spec.churn.arrivals_per_s, spec.churn.zipf_s,
                spec.churn.pareto_alpha, spec.churn.min_bytes,
                spec.churn.max_bytes, spec.churn.slots_per_endpoint);
  if (spec.sharding.shards > 1)
    std::printf("sharding: %d shard(s) requested (deterministic: artifacts "
                "are byte-identical to a serial run)\n",
                spec.sharding.shards);

  // Repetitions are independent simulations under common-random-number
  // seeding; parallel_map keeps results in submission order, so the
  // artifacts are identical for any PHI_BENCH_JOBS.
  std::vector<int> reps(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) reps[static_cast<std::size_t>(r)] = r;
  bench::WallTimer timer;
  bench::phase("run");
  const auto all = exec::parallel_map(
      reps,
      [&](int r) {
        core::ScenarioSpec run_spec = spec;
        run_spec.seed =
            util::derive_seed(spec.seed, static_cast<std::uint64_t>(r));
        return core::run_cubic_scenario(run_spec, tcp::CubicParams{});
      },
      bench::jobs_from_env());
  bench::phase("export");

  bench::ResultTable t("run_scenario_" + name + ".csv",
                       {"rep", "tput_bps", "qdelay_ms", "loss", "util",
                        "rtt_ms", "conns", "timeouts", "power_l"});
  core::ScenarioMetrics mean;
  {
    std::vector<core::ScenarioMetrics> copy(all.begin(), all.end());
    mean = core::average_metrics(copy);
  }
  for (std::size_t r = 0; r < all.size(); ++r)
    t.row(metrics_row(std::to_string(r), all[r]));
  t.row(metrics_row("mean", mean));
  t.print_and_dump();
  if (!all.empty() && spec.sharding.shards > 1) {
    // stdout only; the CSV artifacts carry no shard-dependent columns,
    // so they stay byte-identical across --shards values (CI enforces).
    // The plan depends on the topology alone, so rep 0 speaks for all.
    const core::ScenarioMetrics& m = all.front();
    if (m.shards_used == 1) {
      std::printf("  [sharding] ran serially: no cut with nonzero lookahead "
                  "splits this topology into %d shards\n",
                  spec.sharding.shards);
    } else {
      if (m.shards_used < spec.sharding.shards)
        std::printf("  [sharding] clamped to %d of %d requested shards: "
                    "the topology's delay tiers allow no more\n",
                    m.shards_used, spec.sharding.shards);
      std::string in_split, ev_split;
      for (const core::ShardLoad& l : m.per_shard) {
        const std::string sep = in_split.empty() ? "" : "/";
        in_split += sep + std::to_string(l.boundary_in);
        ev_split += sep + std::to_string(l.events);
      }
      std::printf("  [sharding] %d shards, %llu boundary packet(s)/rep "
                  "(in per shard: %s), %llu event(s)/rep (per shard: %s)\n",
                  m.shards_used,
                  static_cast<unsigned long long>(m.boundary_messages),
                  in_split.c_str(),
                  static_cast<unsigned long long>(m.events_executed),
                  ev_split.c_str());
    }
  }

  // Per-group breakdown when the population defines reporting groups.
  if (!all.empty() && !all.front().groups.empty()) {
    bench::ResultTable g("run_scenario_" + name + "_groups.csv",
                         {"rep", "group", "tput_bps", "rtt_ms", "rtx_rate",
                          "conns"});
    for (std::size_t r = 0; r < all.size(); ++r) {
      for (const auto& gm : all[r].groups) {
        g.row({std::to_string(r), std::to_string(gm.group),
               util::TextTable::num(gm.throughput_bps, 0),
               util::TextTable::num(gm.mean_rtt_s * 1e3, 2),
               util::TextTable::num(gm.retransmit_rate, 4),
               std::to_string(gm.connections)});
      }
    }
    g.print_and_dump();
  }
  // Per-rep churn breakdown when the preset drives open-loop arrivals.
  if (!all.empty() && all.front().churn.enabled) {
    bench::ResultTable c("run_scenario_" + name + "_churn.csv",
                         {"rep", "offered", "completed", "measured",
                          "deferred", "fct_p50_ms", "fct_p90_ms",
                          "fct_p99_ms", "fct_mean_ms", "wait_mean_ms",
                          "goodput_bps"});
    for (std::size_t r = 0; r < all.size(); ++r) {
      const auto& ch = all[r].churn;
      c.row({std::to_string(r), std::to_string(ch.offered),
             std::to_string(ch.completed), std::to_string(ch.measured),
             std::to_string(ch.deferred),
             util::TextTable::num(ch.fct_p50_s * 1e3, 2),
             util::TextTable::num(ch.fct_p90_s * 1e3, 2),
             util::TextTable::num(ch.fct_p99_s * 1e3, 2),
             util::TextTable::num(ch.fct_mean_s * 1e3, 2),
             util::TextTable::num(ch.wait_mean_s * 1e3, 2),
             util::TextTable::num(ch.goodput_bps, 0)});
    }
    c.print_and_dump();
  }
  // Observability artifacts (opt-in; nothing is written without the
  // flags, so default artifacts stay byte-identical). Repetition 0's
  // capture is exported — it is the same object for any PHI_BENCH_JOBS.
  if (spec.telemetry.any() && !all.empty() && all.front().capture) {
    const std::string dir = bench::out_dir();
    const auto& cap = *all.front().capture;
    if (spec.telemetry.trace_one_in > 0 && !dir.empty()) {
      const std::string path = dir + "/run_scenario_" + name + "_trace.json";
      if (cap.log.write_chrome_json(path)) {
        std::printf("  [trace] %s (%zu span events, %zu dropped)\n",
                    path.c_str(), cap.log.events().size(),
                    cap.log.dropped());
      }
    }
    if (spec.telemetry.timeseries_dt > 0 && !dir.empty()) {
      const std::string path =
          dir + "/run_scenario_" + name + "_timeseries.csv";
      if (telemetry::registry().write_timeseries_csv(path))
        std::printf("  [timeseries] %s\n", path.c_str());
    }
    if (spec.telemetry.profile) {
      telemetry::LoopProfile prof;
      for (const auto& m : all)
        if (m.capture) prof.merge(m.capture->profile);
      std::printf("\nevent-loop profile (all repetitions):\n%s",
                  prof.table().c_str());
    }
  }
  std::printf("  (%d runs in %.1f s)\n", runs, timer.seconds());
  // Topology shape: gauges in the metrics dump (identical for every
  // jobs/shards value — it is a pure function of the spec) and the full
  // record in the provenance sidecar.
  {
    auto& reg = telemetry::registry();
    reg.gauge("scenario.topology.nodes")
        .set(static_cast<double>(shape.nodes));
    reg.gauge("scenario.topology.links")
        .set(static_cast<double>(shape.links));
    reg.gauge("scenario.topology.endpoints")
        .set(static_cast<double>(shape.endpoints));
    reg.gauge("scenario.topology.paths")
        .set(static_cast<double>(shape.paths));
    char topo_json[192];
    std::snprintf(topo_json, sizeof topo_json,
                  "{\"class\":\"%s\",\"nodes\":%zu,\"links\":%zu,"
                  "\"endpoints\":%zu,\"paths\":%zu}",
                  shape.klass, shape.nodes, shape.links, shape.endpoints,
                  shape.paths);
    bench::set_run_info("topology", topo_json);
  }
  bench::dump_metrics("run_scenario_" + name);
  return 0;
}
