// Integration: the full Phi loop — lookup -> tuned parameters -> run ->
// report -> server state evolves — on a live mini dumbbell.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "phi/client.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"

namespace phi::core {
namespace {

constexpr PathKey kPath = 77;

TEST(PhiClient, AdvisorInstallsRecommendedParams) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  RecommendationTable table;
  // Whatever the context, recommend these (single bucket, nearest match).
  table.set(ContextBucket{0, 0}, tcp::CubicParams{64, 32, 0.5});
  server.set_recommendations(std::move(table));

  ScenarioSpec cfg = presets::paper_dumbbell(2);
  cfg.workload.mean_on_bytes = 50e3;
  cfg.workload.mean_off_s = 0.3;
  cfg.duration = util::seconds(20);

  // Advisors are owned by the senders and die with the dumbbell, so
  // their state must be snapshotted before the run ends.
  struct Snapshot {
    std::uint64_t recommended;
    tcp::CubicParams params;
  };
  std::vector<PhiCubicAdvisor*> advisors;
  std::vector<Snapshot> snapshots;
  const auto metrics = run_scenario_with_setup(
      cfg,
      [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        sched->schedule_at(cfg.duration - 1, [&] {
          for (const auto* adv : advisors)
            snapshots.push_back(
                {adv->recommended_connections(), adv->last_params()});
        });
        return [&, sched](std::size_t i) {
          auto adv = std::make_unique<PhiCubicAdvisor>(
              server, kPath, i, [sched] { return sched->now(); });
          advisors.push_back(adv.get());
          return adv;
        };
      });

  EXPECT_GT(metrics.connections, 0);
  // One report per completed connection; one lookup per started one
  // (the last connection may still be in flight).
  EXPECT_EQ(server.reports(),
            static_cast<std::uint64_t>(metrics.connections));
  EXPECT_GE(server.lookups(), server.reports());
  // Every completed connection got the tuned parameters.
  ASSERT_EQ(snapshots.size(), advisors.size());
  for (const auto& snap : snapshots) {
    if (snap.recommended > 0) {
      EXPECT_EQ(snap.params.initial_ssthresh, 64);
      EXPECT_EQ(snap.params.window_init, 32);
    }
  }
  // Server has learned a context from the reports.
  const auto ctx = server.context(kPath);
  EXPECT_GT(ctx.utilization, 0.0);
}

TEST(PhiClient, FallbackWhenNoRecommendation) {
  ContextServer server;  // empty table
  ScenarioSpec cfg = presets::paper_dumbbell(1);
  cfg.workload.mean_on_bytes = 30e3;
  cfg.workload.mean_off_s = 0.3;
  cfg.duration = util::seconds(10);

  tcp::CubicParams fallback{128, 4, 0.3};
  // Snapshot the advisor's state in-run: it dies with the dumbbell.
  PhiCubicAdvisor* captured = nullptr;
  std::uint64_t recommended = 99;
  tcp::CubicParams last{};
  const auto metrics = run_scenario_with_setup(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        sched->schedule_at(cfg.duration - 1, [&] {
          if (captured != nullptr) {
            recommended = captured->recommended_connections();
            last = captured->last_params();
          }
        });
        return [&, sched](std::size_t i) {
          auto adv = std::make_unique<PhiCubicAdvisor>(
              server, kPath, i, [sched] { return sched->now(); }, fallback);
          captured = adv.get();
          return adv;
        };
      });
  EXPECT_GT(metrics.connections, 0);
  ASSERT_NE(captured, nullptr);
  EXPECT_EQ(recommended, 0u);
  EXPECT_EQ(last, fallback);
}

TEST(PhiClient, ReportOnlyAdvisorFeedsServer) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  ScenarioSpec cfg = presets::paper_dumbbell(2);
  cfg.workload.mean_on_bytes = 50e3;
  cfg.workload.mean_off_s = 0.3;
  cfg.duration = util::seconds(15);
  const auto metrics = run_scenario(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](std::size_t i) {
        return std::make_unique<ReportOnlyAdvisor>(server, kPath, i);
      });
  EXPECT_EQ(server.reports(),
            static_cast<std::uint64_t>(metrics.connections));
  EXPECT_EQ(server.lookups(), 0u);
  EXPECT_GT(server.context(kPath).utilization, 0.0);
}

TEST(PhiClient, ServerUtilizationTracksLinkMonitor) {
  // The report-driven estimate should land in the neighbourhood of the
  // ground-truth monitor utilization.
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  ScenarioSpec cfg = presets::paper_dumbbell(6);
  cfg.workload.mean_on_bytes = 200e3;
  cfg.workload.mean_off_s = 0.5;
  cfg.duration = util::seconds(40);
  const auto metrics = run_scenario(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](std::size_t i) {
        return std::make_unique<ReportOnlyAdvisor>(server, kPath, i);
      });
  const double est = server.context(kPath).utilization;
  EXPECT_GT(est, metrics.utilization * 0.4);
  EXPECT_LT(est, std::min(metrics.utilization * 1.8 + 0.05, 1.0) + 1e-9);
}

}  // namespace
}  // namespace phi::core
