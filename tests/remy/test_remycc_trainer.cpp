#include <gtest/gtest.h>

#include <memory>

#include "phi/presets.hpp"
#include "remy/remycc.hpp"
#include "remy/trainer.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::remy {
namespace {

std::shared_ptr<WhiskerTree> make_tree(Action a = {}) {
  return std::make_shared<WhiskerTree>(a);
}

TEST(RemyCC, RequiresTree) {
  EXPECT_THROW(RemyCC(nullptr), std::invalid_argument);
}

TEST(RemyCC, WindowUpdateFollowsAction) {
  Action a;
  a.window_multiple = 1.0;
  a.window_increment = 2.0;
  a.intersend_ms = 1.0;
  auto tree = make_tree(a);
  RemyCC cc(tree);
  cc.reset(0);
  EXPECT_EQ(cc.window(), 2.0);
  cc.on_ack(1, 0.15, util::seconds(1));
  EXPECT_EQ(cc.window(), 4.0);  // 1.0 * 2 + 2
  cc.on_ack(1, 0.15, util::seconds(2));
  EXPECT_EQ(cc.window(), 6.0);
}

TEST(RemyCC, WindowClamped) {
  Action a;
  a.window_multiple = 2.0;
  a.window_increment = 20.0;
  auto tree = make_tree(a);
  RemyCC cc(tree);
  cc.reset(0);
  for (int i = 0; i < 100; ++i)
    cc.on_ack(1, 0.1, util::seconds(i + 1));
  EXPECT_EQ(cc.window(), RemyCC::kMaxWindow);

  Action shrink;
  shrink.window_multiple = 0.0;
  shrink.window_increment = -20.0;
  auto tree2 = make_tree(shrink);
  RemyCC cc2(tree2);
  cc2.reset(0);
  cc2.on_ack(1, 0.1, util::seconds(1));
  EXPECT_EQ(cc2.window(), RemyCC::kMinWindow);
}

TEST(RemyCC, PacingGapFromAction) {
  Action a;
  a.intersend_ms = 4.0;
  auto tree = make_tree(a);
  RemyCC cc(tree);
  cc.reset(0);
  EXPECT_EQ(cc.min_send_gap(0), util::milliseconds(4));
}

TEST(RemyCC, TimeoutHalvesWindow) {
  auto tree = make_tree();
  RemyCC cc(tree);
  cc.reset(0);
  for (int i = 0; i < 5; ++i) cc.on_ack(1, 0.1, util::seconds(i + 1));
  const double w = cc.window();
  cc.on_timeout(util::seconds(10), 0);
  EXPECT_NEAR(cc.window(), std::max(w / 2, 1.0), 1e-9);
}

TEST(RemyCC, ProbeFeedsUtilizationSignal) {
  auto tree = make_tree();
  double u = 0.42;
  RemyCC cc(tree, [&u] { return u; });
  cc.reset(0);
  cc.on_ack(1, 0.15, util::seconds(1));
  EXPECT_NEAR(cc.memory().signals()[kUtilization], 0.42, 1e-12);
  u = 0.9;
  cc.on_ack(1, 0.15, util::seconds(2));
  EXPECT_NEAR(cc.memory().signals()[kUtilization], 0.9, 1e-12);
}

TEST(RemyCC, ResetClearsMemoryAndWindow) {
  auto tree = make_tree();
  RemyCC cc(tree);
  cc.reset(0);
  for (int i = 0; i < 10; ++i) cc.on_ack(1, 0.2, util::seconds(i + 1));
  cc.reset(util::seconds(20));
  EXPECT_EQ(cc.window(), 2.0);
  EXPECT_FALSE(cc.memory().warm());
}

TEST(RemyCC, DifferentWhiskersDifferentActions) {
  // Tree split on utilization: low-u half aggressive, high-u half timid.
  auto tree = std::make_shared<WhiskerTree>(Action{}, 0b1000u);
  tree->split(0);
  ASSERT_EQ(tree->size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    auto& w = tree->whisker(i);
    const bool low_u = w.domain.lo[kUtilization] < 0.25;
    w.action.window_multiple = 1.0;
    w.action.window_increment = low_u ? 5.0 : -5.0;
    w.action.intersend_ms = 0.1;
  }
  double u = 0.0;
  RemyCC cc(tree, [&u] { return u; });
  cc.reset(0);
  cc.on_ack(1, 0.15, util::seconds(1));
  const double w_low = cc.window();
  cc.reset(0);
  u = 0.99;
  cc.on_ack(1, 0.15, util::seconds(2));
  const double w_high = cc.window();
  EXPECT_GT(w_low, w_high);  // timid under congestion
}

TEST(RemyCC, DrivesRealTransferEndToEnd) {
  sim::DumbbellConfig net;
  net.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(net));
  Action a;
  a.window_multiple = 1.0;
  a.window_increment = 1.0;
  a.intersend_ms = 0.5;
  auto tree = make_tree(a);
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<RemyCC>(tree));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  tcp::ConnStats stats;
  sender.start_connection(500, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.segments, 500);
  EXPECT_GT(stats.throughput_bps(), 0.1 * util::kMbps);
}

TEST(Trainer, EvaluateProducesFiniteObjective) {
  TrainerConfig cfg = TrainerConfig::table3(SignalMode::kClassic,
                                            util::seconds(5));
  cfg.runs_per_scenario = 1;
  Trainer trainer(cfg);
  WhiskerTree tree;
  const EvalResult res = trainer.evaluate(tree);
  EXPECT_TRUE(std::isfinite(res.objective));
  EXPECT_GT(res.median_throughput_bps, 0.0);
  // Usage was recorded during evaluation.
  EXPECT_TRUE(tree.most_used().has_value());
}

TEST(Trainer, EvaluateDeterministic) {
  TrainerConfig cfg = TrainerConfig::table3(SignalMode::kClassic,
                                            util::seconds(5));
  cfg.runs_per_scenario = 1;
  Trainer trainer(cfg);
  WhiskerTree t1, t2;
  EXPECT_EQ(trainer.evaluate(t1).objective, trainer.evaluate(t2).objective);
}

TEST(Trainer, TinyTrainingRunImprovesOrMatches) {
  TrainerConfig cfg = TrainerConfig::table3(SignalMode::kClassic,
                                            util::seconds(5));
  cfg.runs_per_scenario = 1;
  cfg.max_rounds = 2;
  cfg.max_hill_climb_iters = 1;
  Trainer trainer(cfg);
  WhiskerTree initial;
  const double before = trainer.evaluate(initial).objective;
  WhiskerTree trained = trainer.train();
  WhiskerTree scored = trained;
  const double after = trainer.evaluate(scored).objective;
  EXPECT_GE(after, before - 1e-9);
}

TEST(Trainer, PracticalModeRunsWithContextServer) {
  TrainerConfig cfg = TrainerConfig::table3(SignalMode::kPhiPractical,
                                            util::seconds(5));
  cfg.runs_per_scenario = 1;
  Trainer trainer(cfg);
  WhiskerTree tree({}, 0b1111);
  const EvalResult res = trainer.evaluate(tree);
  EXPECT_TRUE(std::isfinite(res.objective));
}

TEST(Trainer, ScoreTreeIsolatesScenario) {
  core::ScenarioSpec scenario = core::presets::paper_dumbbell(4);
  scenario.workload.mean_on_bytes = 100e3;
  scenario.workload.mean_off_s = 0.5;
  scenario.duration = util::seconds(10);
  WhiskerTree tree;
  const auto res =
      Trainer::score_tree(tree, SignalMode::kClassic, scenario, 2);
  EXPECT_GT(res.median_throughput_bps, 0.0);
}

}  // namespace
}  // namespace phi::remy
