// Control-plane time series are recorded only inside a run that records
// time series: the root's phi.context.{staleness_s,state_version,
// table_installs} and each aggregator's phi.agg.staleness_s grow by one
// sample per message, so a run with TelemetrySpec::timeseries_dt == 0
// (and any call outside a run) must leave them empty, while the control
// plane itself behaves identically either way.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "phi/aggregation.hpp"
#include "phi/client.hpp"
#include "phi/context_server.hpp"
#include "phi/scenario.hpp"
#include "sim/graph_topology.hpp"
#include "telemetry/telemetry.hpp"

namespace phi::core {
namespace {

#ifdef PHI_TELEMETRY_OFF
constexpr bool kTelemetryOn = false;
#else
constexpr bool kTelemetryOn = true;
#endif

struct PlaneRun {
  // What the control plane did, read from the servers at run end.
  std::uint64_t root_lookups = 0;
  std::uint64_t root_reports = 0;
  std::uint64_t root_version = 0;
  std::uint64_t agg_lookups = 0;
  std::uint64_t agg_warm_lookups = 0;
  std::uint64_t agg_reports = 0;
  std::uint64_t agg_forwarded = 0;
  // Samples the run left in its registry.
  std::size_t staleness_samples = 0;
  std::size_t version_samples = 0;
  std::size_t install_samples = 0;
  std::size_t agg_staleness_samples = 0;
};

RecommendationTable tuned_table() {
  RecommendationTable t;
  tcp::CubicParams p;
  p.window_init = 8;
  for (int u = 0; u < 5; ++u)
    for (int n = 0; n < 8; ++n) t.set({u, n}, p);
  return t;
}

/// A short Phi churn run on a k=4 fat tree: a root server and one
/// aggregator per region, built in the setup hook, each run in its own
/// registry.
PlaneRun run_phi_churn(util::Duration timeseries_dt) {
  ScenarioSpec spec;
  spec.topology = sim::FatTreeConfig{};
  spec.duration = util::seconds(1);
  spec.warmup = util::from_seconds(0.25);
  spec.seed = 5;
  spec.churn.arrivals_per_s = 300;
  spec.telemetry.timeseries_dt = timeseries_dt;

  telemetry::MetricRegistry reg;
  telemetry::ScopedRegistry scope(reg);
  std::unique_ptr<ContextServer> root;
  std::vector<std::unique_ptr<AggregatorServer>> aggs;
  std::vector<std::string> agg_names;
  PlaneRun out;
  run_scenario_with_setup(
      spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        auto* g = dynamic_cast<sim::GraphTopology*>(live.topology);
        sim::Scheduler* sched = &live.topology->scheduler();
        root = std::make_unique<ContextServer>(
            ContextServerConfig{}, [sched] { return sched->now(); });
        for (std::size_t p = 0; p < live.topology->path_count(); ++p)
          root->set_path_capacity(static_cast<PathKey>(p),
                                  live.topology->path_link(p).rate());
        root->set_recommendations(tuned_table());
        for (int r = 0; r < g->regions(); ++r) {
          AggregatorConfig ac;
          ac.name = "r";
          ac.name += std::to_string(r);
          agg_names.push_back(ac.name);
          aggs.push_back(
              std::make_unique<AggregatorServer>(*sched, *root, ac));
        }
        live.churn_advisor = [&, g, sched, eps = live.churn_endpoints](
                                 std::size_t slot)
            -> std::unique_ptr<tcp::ConnectionAdvisor> {
          const std::size_t ep = eps[slot];
          std::size_t path = g->endpoint_path(ep);
          if (path == sim::Topology::kAllPaths) path = 0;
          return std::make_unique<PhiCubicAdvisor>(
              *aggs[static_cast<std::size_t>(g->endpoint_region(ep))],
              static_cast<PathKey>(path), 900'000 + slot,
              [sched] { return sched->now(); });
        };
        live.on_complete = [&] {
          out.root_lookups = root->lookups();
          out.root_reports = root->reports();
          out.root_version = root->state_version();
          for (const auto& a : aggs) {
            out.agg_lookups += a->lookups();
            out.agg_warm_lookups += a->staleness().count();
            out.agg_reports += a->reports();
            out.agg_forwarded += a->forwarded();
          }
        };
        return nullptr;
      });
  out.staleness_samples = reg.timeseries("phi.context.staleness_s").size();
  out.version_samples = reg.timeseries("phi.context.state_version").size();
  out.install_samples = reg.timeseries("phi.context.table_installs").size();
  for (const std::string& name : agg_names)
    out.agg_staleness_samples +=
        reg.timeseries("phi.agg.staleness_s", {{"agg", name}}).size();
  return out;
}

TEST(ControlPlaneSeries, RecordedOnlyWhenTheRunRecordsTimeSeries) {
  const PlaneRun off = run_phi_churn(0);
  const PlaneRun on = run_phi_churn(util::milliseconds(100));

  // The control plane really ran, and did exactly the same either way.
  ASSERT_GT(off.root_lookups, 0u);
  ASSERT_GT(off.root_reports, 0u);
  ASSERT_GT(off.agg_warm_lookups, 0u);
  EXPECT_EQ(on.root_lookups, off.root_lookups);
  EXPECT_EQ(on.root_reports, off.root_reports);
  EXPECT_EQ(on.root_version, off.root_version);
  EXPECT_EQ(on.agg_lookups, off.agg_lookups);
  EXPECT_EQ(on.agg_warm_lookups, off.agg_warm_lookups);
  EXPECT_EQ(on.agg_reports, off.agg_reports);
  EXPECT_EQ(on.agg_forwarded, off.agg_forwarded);

  EXPECT_EQ(off.staleness_samples, 0u);
  EXPECT_EQ(off.version_samples, 0u);
  EXPECT_EQ(off.install_samples, 0u);
  EXPECT_EQ(off.agg_staleness_samples, 0u);

  // One sample per root lookup, per absorbed report, per table install
  // and per warm aggregator lookup.
  EXPECT_EQ(on.staleness_samples, kTelemetryOn ? on.root_lookups : 0u);
  EXPECT_EQ(on.version_samples, kTelemetryOn ? on.root_reports : 0u);
  EXPECT_EQ(on.install_samples, kTelemetryOn ? 1u : 0u);
  EXPECT_EQ(on.agg_staleness_samples,
            kTelemetryOn ? on.agg_warm_lookups : 0u);
}

TEST(ControlPlaneSeries, NothingIsRecordedOutsideARun) {
  telemetry::MetricRegistry reg;
  telemetry::ScopedRegistry scope(reg);
  sim::Scheduler sched;
  ContextServer root(ContextServerConfig{});
  AggregatorConfig ac;
  ac.name = "solo";
  AggregatorServer agg(sched, root, ac);

  root.set_recommendations(tuned_table());
  LookupRequest req;
  req.path = 1;
  req.sender_id = 1;
  req.at = util::milliseconds(1);
  root.lookup(req);
  Report r;
  r.path = 1;
  r.sender_id = 1;
  r.bytes = 10'000;
  r.started = util::milliseconds(1);
  r.ended = util::milliseconds(5);
  root.report(r);
  agg.lookup(req);  // cold: queued for the root
  sched.run_until(util::seconds(1));
  agg.lookup(req);  // warm: served from the cache

  EXPECT_EQ(root.lookups(), 2u);
  EXPECT_EQ(root.reports(), 1u);
  EXPECT_EQ(agg.staleness().count(), 1u);
  EXPECT_EQ(reg.timeseries("phi.context.staleness_s").size(), 0u);
  EXPECT_EQ(reg.timeseries("phi.context.state_version").size(), 0u);
  EXPECT_EQ(reg.timeseries("phi.context.table_installs").size(), 0u);
  EXPECT_EQ(reg.timeseries("phi.agg.staleness_s", {{"agg", "solo"}}).size(),
            0u);
}

}  // namespace
}  // namespace phi::core
