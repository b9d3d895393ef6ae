#include <gtest/gtest.h>

#include "phi/presets.hpp"
#include "phi/sweep.hpp"

namespace phi::core {
namespace {

ScenarioSpec mini_scenario(std::size_t pairs = 4,
                           util::Duration dur = util::seconds(20)) {
  ScenarioSpec spec = presets::paper_dumbbell(pairs);
  spec.workload.mean_on_bytes = 100e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = dur;
  spec.seed = 3;
  return spec;
}

TEST(Scenario, DeterministicForSameSeed) {
  const auto a = run_cubic_scenario(mini_scenario(), tcp::CubicParams{});
  const auto b = run_cubic_scenario(mini_scenario(), tcp::CubicParams{});
  EXPECT_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto cfg = mini_scenario();
  const auto a = run_cubic_scenario(cfg, tcp::CubicParams{});
  cfg.seed = 4;
  const auto b = run_cubic_scenario(cfg, tcp::CubicParams{});
  EXPECT_NE(a.throughput_bps, b.throughput_bps);
}

TEST(Scenario, MetricsSane) {
  const auto m = run_cubic_scenario(mini_scenario(), tcp::CubicParams{});
  EXPECT_GT(m.connections, 0);
  EXPECT_GT(m.throughput_bps, 0.0);
  EXPECT_LT(m.throughput_bps, 15.0 * util::kMbps * 1.01);
  EXPECT_GT(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GE(m.mean_rtt_s, 0.15 * 0.99);
  EXPECT_GE(m.loss_rate, 0.0);
  EXPECT_GT(m.power_l(), 0.0);
}

TEST(Scenario, GroupsPartitionTraffic) {
  ScenarioSpec spec = mini_scenario();
  for (std::size_t i = 0; i < 4; ++i)
    spec.senders.push_back({.endpoint = i, .group = static_cast<int>(i % 2)});
  const auto m = run_scenario(
      spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); });
  ASSERT_EQ(m.groups.size(), 2u);
  std::int64_t conns = 0;
  for (const auto& g : m.groups) conns += g.connections;
  EXPECT_EQ(conns, m.connections);
}

TEST(Scenario, WarmupResetsStats) {
  auto cfg = mini_scenario();
  cfg.warmup = util::seconds(5);
  const auto m = run_cubic_scenario(cfg, tcp::CubicParams{});
  EXPECT_GT(m.connections, 0);
  EXPECT_GT(m.throughput_bps, 0.0);
}

TEST(Scenario, LongRunningFlowsFallBackToLinkCounters) {
  auto cfg = mini_scenario(2, util::seconds(20));
  cfg.workload.mean_on_bytes = 1e13;  // never completes
  cfg.workload.start_with_off = false;
  const auto m = run_cubic_scenario(cfg, tcp::CubicParams{});
  EXPECT_EQ(m.connections, 0);
  EXPECT_GT(m.throughput_bps, 1.0 * util::kMbps);
  EXPECT_GT(m.mean_rtt_s, 0.1);
}

TEST(SweepSpec, PaperGridMatchesTable2) {
  const auto spec = SweepSpec::paper();
  EXPECT_EQ(spec.ssthresh.size(), 8u);  // 2..256 x2
  EXPECT_EQ(spec.winit.size(), 8u);
  EXPECT_EQ(spec.betas.size(), 9u);  // 0.1..0.9
  EXPECT_EQ(spec.combos().size(), 8u * 8u * 9u);
  EXPECT_EQ(spec.ssthresh.front(), 2);
  EXPECT_EQ(spec.ssthresh.back(), 256);
  EXPECT_NEAR(spec.betas.front(), 0.1, 1e-12);
  EXPECT_NEAR(spec.betas.back(), 0.9, 1e-12);
}

TEST(SweepSpec, BetaOnlyKeepsDefaults) {
  const auto spec = SweepSpec::beta_only();
  EXPECT_EQ(spec.combos().size(), 9u);
  for (const auto& c : spec.combos()) {
    EXPECT_EQ(c.initial_ssthresh, 65536);
    EXPECT_EQ(c.window_init, 2);
  }
}

TEST(Sweep, FindsBetterThanDefaultOnMicroGrid) {
  SweepSpec spec;
  spec.ssthresh = {64};
  spec.winit = {16};
  spec.betas = {0.2};
  const auto result =
      run_cubic_sweep(mini_scenario(8, util::seconds(30)), spec, 2);
  ASSERT_TRUE(result.has_default());
  ASSERT_EQ(result.points.size(), 2u);  // the combo + appended default
  EXPECT_GT(result.best().score, 0.0);
  // Tuned should beat default on this congested-ish workload.
  EXPECT_GE(result.best().score, result.default_point().score);
}

TEST(Sweep, DefaultIncludedEvenIfAbsentFromGrid) {
  SweepSpec spec;
  spec.ssthresh = {8};
  spec.winit = {8};
  spec.betas = {0.5};
  const auto result =
      run_cubic_sweep(mini_scenario(2, util::seconds(10)), spec, 1);
  ASSERT_TRUE(result.has_default());
  EXPECT_EQ(result.default_point().params, tcp::CubicParams{});
}

TEST(Sweep, AverageMetricsAverages) {
  ScenarioMetrics a, b;
  a.throughput_bps = 10;
  b.throughput_bps = 20;
  a.loss_rate = 0.1;
  b.loss_rate = 0.3;
  a.connections = 3;
  b.connections = 5;
  const auto avg = average_metrics({a, b});
  EXPECT_NEAR(avg.throughput_bps, 15.0, 1e-9);
  EXPECT_NEAR(avg.loss_rate, 0.2, 1e-9);
  EXPECT_EQ(avg.connections, 8);
}

TEST(Sweep, LeaveOneOutOnSyntheticResult) {
  // Two settings, three runs. Setting A dominates on every run; the
  // leave-one-out choice must always pick A.
  SweepResult sweep;
  sweep.n_runs = 3;
  SweepPoint a, b;
  a.params = tcp::CubicParams{64, 16, 0.2};
  b.params = tcp::CubicParams{};
  for (int r = 0; r < 3; ++r) {
    ScenarioMetrics ma, mb;
    ma.throughput_bps = 10e6 + r * 1e5;
    ma.mean_rtt_s = 0.2;
    mb.throughput_bps = 5e6;
    mb.mean_rtt_s = 0.2;
    a.runs.push_back(ma);
    b.runs.push_back(mb);
  }
  a.mean = average_metrics(a.runs);
  b.mean = average_metrics(b.runs);
  a.score = 1;
  b.score = 0;
  sweep.points = {a, b};
  sweep.best_index = 0;
  sweep.default_index = 1;

  const auto st = leave_one_out(sweep);
  EXPECT_EQ(st.chosen.size(), 3u);
  for (const auto& c : st.chosen) EXPECT_EQ(c, a.params);
  EXPECT_GT(st.common_score, st.default_score);
  EXPECT_NEAR(st.common_score, st.oracle_score,
              st.oracle_score * 0.05);
}

TEST(Sweep, BuildRecommendationTableFillsBuckets) {
  SweepSpec spec;
  spec.ssthresh = {8, 64};
  spec.winit = {8};
  spec.betas = {0.2};
  const auto table = build_recommendation_table(
      {mini_scenario(2, util::seconds(10)),
       mini_scenario(8, util::seconds(10))},
      spec, 1);
  EXPECT_GE(table.size(), 1u);
  EXPECT_LE(table.size(), 2u);  // workloads may share a bucket
}

}  // namespace
}  // namespace phi::core
