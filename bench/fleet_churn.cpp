// fleet_churn.cpp — the fleet-scale capstone: open-loop flow churn over
// generated topologies (k=4 fat tree, 6-site WAN graph), Cubic vs Phi.
//
// The paper's premise is that "five computers" can afford a shared
// context service; this bench exercises the full deployment shape at
// fleet scale: 10^5+ short flows arrive Poisson/Zipf/bounded-Pareto,
// each asks a *regional* aggregator (phi/aggregation.hpp) for context
// before starting, aggregators batch reports/lookups up to the root
// ContextServer, and the root's recommendation table warm-starts Cubic
// per context bucket. Reported per preset x policy: FCT percentiles,
// goodput, control-plane lookups/sec, and aggregator snapshot staleness.
//
// Scale: quick trims the horizon (a few thousand flows per cell, ~secs);
// full runs the presets as declared (~120k / ~108k flows per run).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "phi/aggregation.hpp"
#include "phi/client.hpp"
#include "phi/context_server.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "sim/graph_topology.hpp"
#include "sim/topology.hpp"
#include "tcp/cc.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

using phi::bench::ResultTable;

/// Context-tuned warm starts, the shape the optimizer's sweeps produce
/// (§2.2.1): an uncongested path lets short flows skip the slow-start
/// ramp entirely (window_init dominates FCT when most transfers fit in
/// a handful of windows); a busy or crowded path gets stock caution plus
/// a harder multiplicative decrease so the newcomer cedes quickly.
core::RecommendationTable warm_table() {
  core::RecommendationTable t;
  for (int u = 0; u < 5; ++u) {
    for (int n = 0; n < 8; ++n) {
      tcp::CubicParams p;
      if (u <= 1)
        p.window_init = n <= 2 ? 24 : 12;
      else if (u == 2)
        p.window_init = 8;
      if (u >= 3 || n >= 4) p.beta = 0.4;
      t.set({u, n}, p);
    }
  }
  return t;
}

/// Control-plane state for one Phi run: the root server, one aggregator
/// per topology region, and the counters harvested by on_complete while
/// the topology (and its scheduler) are still alive.
struct PhiRun {
  std::unique_ptr<core::ContextServer> root;
  std::vector<std::unique_ptr<core::AggregatorServer>> aggs;

  std::uint64_t root_lookups = 0;
  std::uint64_t root_reports = 0;
  std::uint64_t agg_lookups = 0;
  std::uint64_t agg_reports = 0;
  std::uint64_t agg_forwarded = 0;
  std::uint64_t agg_flushes = 0;
  std::uint64_t agg_cold = 0;
  std::size_t stale_n = 0;
  double stale_sum_s = 0;
  double stale_max_s = 0;

  double stale_mean_s() const {
    return stale_n != 0 ? stale_sum_s / static_cast<double>(stale_n) : 0.0;
  }
};

core::PolicyFactory cubic_policy() {
  return [](std::size_t) { return std::make_unique<tcp::Cubic>(); };
}

/// One cell: the preset under plain Cubic, or under the aggregation tree
/// with per-slot PhiCubicAdvisors. Serial (shards = 1): setup hooks and
/// sharding are mutually exclusive by design, and the Cubic baseline
/// keeps the same engine path so the comparison is apples-to-apples.
core::ScenarioMetrics run_cell(const core::ScenarioSpec& spec, bool phi,
                               PhiRun* pr) {
  if (!phi) return core::run_scenario(spec, cubic_policy());
  auto setup = [pr](core::LiveScenario& live) -> core::AdvisorFactory {
    auto* g = dynamic_cast<sim::GraphTopology*>(live.topology);
    sim::Scheduler* sched = &live.topology->scheduler();
    auto clock = [sched] { return sched->now(); };
    pr->root = std::make_unique<core::ContextServer>(
        core::ContextServerConfig{}, clock);
    for (std::size_t p = 0; p < live.topology->path_count(); ++p) {
      pr->root->set_path_capacity(static_cast<core::PathKey>(p),
                                  live.topology->path_link(p).rate());
    }
    pr->root->set_recommendations(warm_table());
    const int regions = g != nullptr ? g->regions() : 1;
    for (int r = 0; r < regions; ++r) {
      core::AggregatorConfig ac;
      ac.name = "r";
      ac.name += std::to_string(r);
      pr->aggs.push_back(std::make_unique<core::AggregatorServer>(
          *sched, *pr->root, ac));
    }
    live.churn_advisor = [pr, g, sched,
                          eps = live.churn_endpoints](std::size_t slot)
        -> std::unique_ptr<tcp::ConnectionAdvisor> {
      const std::size_t ep = eps[slot];
      const int region = g != nullptr ? g->endpoint_region(ep) : 0;
      std::size_t path = g != nullptr ? g->endpoint_path(ep) : 0;
      if (path == sim::Topology::kAllPaths) path = 0;
      return std::make_unique<core::PhiCubicAdvisor>(
          *pr->aggs[static_cast<std::size_t>(region)],
          static_cast<core::PathKey>(path),
          /*sender_id=*/900'000 + slot, [sched] { return sched->now(); });
    };
    live.on_complete = [pr] {
      pr->root_lookups = pr->root->lookups();
      pr->root_reports = pr->root->reports();
      for (const auto& a : pr->aggs) {
        pr->agg_lookups += a->lookups();
        pr->agg_reports += a->reports();
        pr->agg_forwarded += a->forwarded();
        pr->agg_flushes += a->flushes();
        pr->agg_cold += a->cold_lookups();
        const auto& st = a->staleness();
        if (st.count() != 0) {
          pr->stale_n += st.count();
          pr->stale_sum_s += st.sum();
          pr->stale_max_s = std::max(pr->stale_max_s, st.max());
        }
      }
    };
    return nullptr;  // churn slots take advisors via churn_advisor
  };
  return core::run_scenario_with_setup(spec, cubic_policy(), setup);
}

struct Cell {
  core::ChurnMetrics churn;
  PhiRun phi;  // zeroed for the Cubic baseline
};

}  // namespace

int main() {
  phi::bench::banner("fleet_churn — open-loop churn over generated "
                     "topologies, Cubic vs Phi aggregation tree");
  const bool full = phi::bench::scale_from_env() == phi::bench::Scale::kFull;

  struct PresetRun {
    const char* preset;
    double quick_duration_s;
  };
  const std::vector<PresetRun> presets = {
      {"fat-tree-churn", 3.0},
      {"wan-churn", 6.0},
  };

  ResultTable table(
      "fleet_churn.csv",
      {"preset", "policy", "flows", "fct_p50_ms", "fct_p90_ms", "fct_p99_ms",
       "fct_mean_ms", "goodput_mbps", "retx", "lookups_per_s",
       "stale_mean_ms", "stale_max_ms"});
  ResultTable vs("fleet_churn_vs.csv",
                 {"preset", "fct_p50_ratio", "fct_p99_ratio",
                  "goodput_ratio", "agg_lookups", "root_lookups",
                  "root_reports", "batches"});

  std::string json = "{\"bench\":\"fleet_churn\",\"scale\":\"" +
                     std::string(full ? "full" : "quick") +
                     "\",\"presets\":{";
  bool first_preset = true;

  for (const auto& p : presets) {
    const core::presets::Preset* preset = core::presets::find(p.preset);
    if (preset == nullptr) {
      std::fprintf(stderr, "preset %s missing from registry\n", p.preset);
      return 1;
    }
    core::ScenarioSpec spec = preset->spec;
    if (!full) spec.duration = util::from_seconds(p.quick_duration_s);
    const double dur_s = util::to_seconds(spec.duration);
    const sim::TopologyShape shape = sim::topology_shape(spec.topology);
    std::printf("\n-- %s: %s topology, %zu nodes / %zu links / %zu "
                "endpoints / %zu paths, %.0f s horizon, %.0f flows/s\n",
                p.preset, shape.klass, shape.nodes, shape.links,
                shape.endpoints, shape.paths, dur_s,
                spec.churn.arrivals_per_s);

    Cell cubic, phi;
    {
      phi::bench::phase("cubic");
      phi::bench::WallTimer t;
      cubic.churn = run_cell(spec, false, nullptr).churn;
      std::printf("   cubic: %" PRIu64 "/%" PRIu64
                  " flows measured, fct p50 %.2f ms  [%.1f s wall]\n",
                  cubic.churn.measured, cubic.churn.offered,
                  cubic.churn.fct_p50_s * 1e3, t.seconds());
    }
    {
      phi::bench::phase("phi");
      phi::bench::WallTimer t;
      phi.churn = run_cell(spec, true, &phi.phi).churn;
      std::printf("   phi:   %" PRIu64 "/%" PRIu64
                  " flows measured, fct p50 %.2f ms, %" PRIu64
                  " agg lookups  [%.1f s wall]\n",
                  phi.churn.measured, phi.churn.offered,
                  phi.churn.fct_p50_s * 1e3, phi.phi.agg_lookups,
                  t.seconds());
    }

    const auto row = [&](const char* policy, const Cell& c, bool is_phi) {
      const double lps =
          is_phi ? static_cast<double>(c.phi.agg_lookups) / dur_s : 0.0;
      table.row({p.preset, policy, std::to_string(c.churn.measured),
                 util::TextTable::num(c.churn.fct_p50_s * 1e3, 2),
                 util::TextTable::num(c.churn.fct_p90_s * 1e3, 2),
                 util::TextTable::num(c.churn.fct_p99_s * 1e3, 2),
                 util::TextTable::num(c.churn.fct_mean_s * 1e3, 2),
                 util::TextTable::num(c.churn.goodput_bps / 1e6, 2),
                 std::to_string(c.churn.retransmits),
                 util::TextTable::num(lps, 1),
                 util::TextTable::num(c.phi.stale_mean_s() * 1e3, 2),
                 util::TextTable::num(c.phi.stale_max_s * 1e3, 2)});
    };
    row("cubic", cubic, false);
    row("phi", phi, true);

    const auto ratio = [](double a, double b) { return b != 0 ? a / b : 0; };
    vs.row({p.preset,
            util::TextTable::num(
                ratio(phi.churn.fct_p50_s, cubic.churn.fct_p50_s), 3),
            util::TextTable::num(
                ratio(phi.churn.fct_p99_s, cubic.churn.fct_p99_s), 3),
            util::TextTable::num(
                ratio(phi.churn.goodput_bps, cubic.churn.goodput_bps), 3),
            std::to_string(phi.phi.agg_lookups),
            std::to_string(phi.phi.root_lookups),
            std::to_string(phi.phi.root_reports),
            std::to_string(phi.phi.agg_flushes)});

    char buf[2048];
    std::snprintf(
        buf, sizeof buf,
        "%s\"%s\":{\"topology\":{\"class\":\"%s\",\"nodes\":%zu,"
        "\"links\":%zu,\"endpoints\":%zu,\"paths\":%zu},"
        "\"duration_s\":%.1f,\"arrivals_per_s\":%.0f,"
        "\"flows_offered\":%" PRIu64 ",\"cubic\":{\"measured\":%" PRIu64
        ",\"fct_p50_ms\":%.3f,\"fct_p90_ms\":%.3f,\"fct_p99_ms\":%.3f,"
        "\"fct_mean_ms\":%.3f,\"goodput_mbps\":%.2f,\"retransmits\":%" PRIu64
        "},\"phi\":{\"measured\":%" PRIu64
        ",\"fct_p50_ms\":%.3f,\"fct_p90_ms\":%.3f,\"fct_p99_ms\":%.3f,"
        "\"fct_mean_ms\":%.3f,\"goodput_mbps\":%.2f,\"retransmits\":%" PRIu64
        ",\"aggregation\":{\"regions\":%zu,\"lookups\":%" PRIu64
        ",\"lookups_per_s\":%.1f,\"reports\":%" PRIu64
        ",\"cold_lookups\":%" PRIu64 ",\"batches\":%" PRIu64
        ",\"forwarded_reports\":%" PRIu64 ",\"root_lookups\":%" PRIu64
        ",\"root_reports\":%" PRIu64
        ",\"staleness_mean_ms\":%.3f,\"staleness_max_ms\":%.3f}},"
        "\"fct_p50_ratio_phi_over_cubic\":%.3f}",
        first_preset ? "" : ",", p.preset, shape.klass, shape.nodes,
        shape.links, shape.endpoints, shape.paths, dur_s,
        spec.churn.arrivals_per_s, cubic.churn.offered, cubic.churn.measured,
        cubic.churn.fct_p50_s * 1e3, cubic.churn.fct_p90_s * 1e3,
        cubic.churn.fct_p99_s * 1e3, cubic.churn.fct_mean_s * 1e3,
        cubic.churn.goodput_bps / 1e6, cubic.churn.retransmits,
        phi.churn.measured, phi.churn.fct_p50_s * 1e3,
        phi.churn.fct_p90_s * 1e3, phi.churn.fct_p99_s * 1e3,
        phi.churn.fct_mean_s * 1e3, phi.churn.goodput_bps / 1e6,
        phi.churn.retransmits, phi.phi.aggs.size(), phi.phi.agg_lookups,
        static_cast<double>(phi.phi.agg_lookups) / dur_s,
        phi.phi.agg_reports, phi.phi.agg_cold, phi.phi.agg_flushes,
        phi.phi.agg_forwarded, phi.phi.root_lookups, phi.phi.root_reports,
        phi.phi.stale_mean_s() * 1e3, phi.phi.stale_max_s * 1e3,
        cubic.churn.fct_p50_s != 0
            ? phi.churn.fct_p50_s / cubic.churn.fct_p50_s
            : 0.0);
    json += buf;
    first_preset = false;
  }
  json += "}}\n";

  table.print_and_dump();
  vs.print_and_dump();

  const std::string dir = phi::bench::out_dir();
  if (!dir.empty()) {
    const std::string path = dir + "/fleet_churn_summary.json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
      std::printf("  [json] %s\n", path.c_str());
    }
  }
  phi::bench::dump_metrics("fleet_churn");
  return 0;
}
