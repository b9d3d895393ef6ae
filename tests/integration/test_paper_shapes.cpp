// Paper-shape regression tests: miniature versions of each experiment's
// headline direction. The benches regenerate the full tables; these keep
// the *claims* under test on every ctest run so a transport or phi change
// that silently flips a conclusion fails fast.
#include <gtest/gtest.h>

#include <memory>

#include "phi/client.hpp"
#include "util/rng.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "phi/sweep.hpp"

namespace phi::core {
namespace {

ScenarioSpec paper_workload(std::size_t pairs, std::uint64_t seed,
                            double on_bytes = 500e3, double off_s = 2.0) {
  ScenarioSpec spec = presets::paper_dumbbell(pairs);
  spec.workload.mean_on_bytes = on_bytes;
  spec.workload.mean_off_s = off_s;
  spec.duration = util::seconds(40);
  spec.seed = seed;
  return spec;
}

double mean_pl(const ScenarioSpec& base, tcp::CubicParams params,
               int runs = 2) {
  double total = 0;
  for (int r = 0; r < runs; ++r) {
    ScenarioSpec cfg = base;
    cfg.seed = util::derive_seed(base.seed, static_cast<std::uint64_t>(r));
    total += run_cubic_scenario(cfg, params).power_l();
  }
  return total / runs;
}

TEST(PaperShape, Fig2bTunedBeatsDefaultAtHighUtilization) {
  const auto base = paper_workload(16, 71);
  const double dflt = mean_pl(base, tcp::CubicParams{});
  const double tuned = mean_pl(base, tcp::CubicParams{32, 8, 0.8});
  EXPECT_GT(tuned, dflt * 1.2)
      << "tuned Cubic must clearly beat defaults at high load";
}

TEST(PaperShape, Fig2bTunedCutsQueueingDelay) {
  const auto base = paper_workload(16, 72);
  const auto d = run_cubic_scenario(base, tcp::CubicParams{});
  const auto t = run_cubic_scenario(base, tcp::CubicParams{32, 8, 0.8});
  EXPECT_LT(t.mean_queue_delay_s, d.mean_queue_delay_s * 0.6);
  EXPECT_LE(t.loss_rate, d.loss_rate + 1e-9);
}

TEST(PaperShape, Fig2cBetaControlsDelayForLongFlows) {
  auto base = paper_workload(40, 73, 1e13, 1.0);
  base.workload.start_with_off = false;
  base.duration = util::seconds(30);
  tcp::CubicParams gentle{};  // beta 0.2
  tcp::CubicParams sharp{};
  sharp.beta = 0.9;
  const auto g = run_cubic_scenario(base, gentle);
  const auto s = run_cubic_scenario(base, sharp);
  EXPECT_LT(s.mean_queue_delay_s, g.mean_queue_delay_s)
      << "sharper backoff must drain the standing queue";
  // Throughput essentially unchanged (link stays saturated).
  EXPECT_GT(s.throughput_bps, g.throughput_bps * 0.9);
}

TEST(PaperShape, Fig4ModifiedHalfGainsAtModerateLoad) {
  const auto base = paper_workload(8, 74);
  const tcp::CubicParams tuned{64, 32, 0.2};
  ScenarioSpec grouped = base;  // even senders modified (group 0)
  for (std::size_t i = 0; i < 8; ++i)
    grouped.senders.push_back(
        {.endpoint = i, .group = static_cast<int>(i % 2)});
  const auto mixed = run_scenario(
      grouped,
      [tuned](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
        return std::make_unique<tcp::Cubic>(i % 2 == 0 ? tuned
                                                       : tcp::CubicParams{});
      });
  const auto all_default = run_cubic_scenario(base, tcp::CubicParams{});
  double modified = 0;
  for (const auto& g : mixed.groups)
    if (g.group == 0) modified = g.throughput_bps;
  EXPECT_GT(modified, all_default.throughput_bps * 1.1)
      << "partial deployment must still pay for the adopters";
}

TEST(PaperShape, PhiLoopBeatsAutonomousDefaults) {
  // End-to-end: context server + recommendation vs everyone-default.
  auto base = paper_workload(8, 75);
  base.duration = util::seconds(40);
  const auto before = run_cubic_scenario(base, tcp::CubicParams{});

  ContextServer server;
  server.set_path_capacity(
      1, std::get<sim::DumbbellConfig>(base.topology).bottleneck_rate);
  RecommendationTable table;
  for (int u = 0; u < 5; ++u)
    for (int n = 0; n < 6; ++n)
      table.set(ContextBucket{u, n}, tcp::CubicParams{64, 32, 0.2});
  server.set_recommendations(std::move(table));

  const auto after = run_scenario_with_setup(
      base, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        return [&server, sched](std::size_t i)
                   -> std::unique_ptr<tcp::ConnectionAdvisor> {
          return std::make_unique<PhiCubicAdvisor>(
              server, 1, i, [sched] { return sched->now(); });
        };
      });
  EXPECT_GT(after.power_l(), before.power_l() * 1.2);
  EXPECT_GT(after.throughput_bps, before.throughput_bps);
}

TEST(PaperShape, LowUtilizationFrontLoadingWins) {
  // Fig 2a direction: at light load a large initial window finishes
  // short transfers much faster than probing from 2 segments.
  const auto base = paper_workload(4, 76);
  const double dflt = mean_pl(base, tcp::CubicParams{});
  const double front = mean_pl(base, tcp::CubicParams{2, 256, 0.8});
  EXPECT_GT(front, dflt * 1.3);
}

}  // namespace
}  // namespace phi::core
