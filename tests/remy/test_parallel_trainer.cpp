// jobs-equivalence for the trainer: evaluation and the full hill-climb
// produce identical results (objective, use counts, trained tree) for
// any jobs value. Candidate evaluations are independent simulations, so
// the parallel batch + serial first-wins replay must reproduce the
// serial trainer exactly — these are EXPECT_EQ comparisons on doubles.
#include <gtest/gtest.h>

#include <cmath>

#include "phi/presets.hpp"
#include "remy/trainer.hpp"

namespace phi::remy {
namespace {

TrainerConfig tiny_cfg(int jobs) {
  TrainerConfig cfg =
      TrainerConfig::table3(SignalMode::kClassic, util::seconds(5));
  cfg.runs_per_scenario = 2;
  cfg.max_rounds = 2;
  cfg.max_hill_climb_iters = 1;
  cfg.jobs = jobs;
  return cfg;
}

TEST(ParallelTrainer, EvaluateMatchesSerial) {
  WhiskerTree serial_tree, wide_tree;
  const EvalResult serial = Trainer(tiny_cfg(1)).evaluate(serial_tree);
  const EvalResult wide = Trainer(tiny_cfg(4)).evaluate(wide_tree);

  EXPECT_EQ(serial.objective, wide.objective);
  EXPECT_EQ(serial.median_throughput_bps, wide.median_throughput_bps);
  EXPECT_EQ(serial.median_queue_delay_s, wide.median_queue_delay_s);
  EXPECT_EQ(serial.median_log_power, wide.median_log_power);
  EXPECT_EQ(serial.loss_rate, wide.loss_rate);

  // Use counts fold back additively from the per-task tree copies, so
  // the parallel evaluation must record the same counts as the serial.
  ASSERT_EQ(serial_tree.size(), wide_tree.size());
  for (std::size_t i = 0; i < serial_tree.size(); ++i)
    EXPECT_EQ(serial_tree.whisker(i).use_count,
              wide_tree.whisker(i).use_count);
  EXPECT_EQ(serial_tree.most_used(), wide_tree.most_used());
}

TEST(ParallelTrainer, TrainMatchesSerial) {
  const WhiskerTree serial = Trainer(tiny_cfg(1)).train();
  const WhiskerTree wide = Trainer(tiny_cfg(3)).train();
  // serialize() covers domains and actions of every whisker — the whole
  // learned artifact.
  EXPECT_EQ(serial.serialize(), wide.serialize());
}

TEST(ParallelTrainer, ScoreTreeMatchesSerial) {
  core::ScenarioSpec scenario = core::presets::paper_dumbbell(4);
  scenario.workload.mean_on_bytes = 100e3;
  scenario.workload.mean_off_s = 0.5;
  scenario.duration = util::seconds(10);
  WhiskerTree tree;
  const auto serial =
      Trainer::score_tree(tree, SignalMode::kClassic, scenario, 3, 1);
  const auto wide =
      Trainer::score_tree(tree, SignalMode::kClassic, scenario, 3, 8);
  EXPECT_EQ(serial.objective, wide.objective);
  EXPECT_EQ(serial.median_throughput_bps, wide.median_throughput_bps);
  EXPECT_EQ(serial.median_queue_delay_s, wide.median_queue_delay_s);
  EXPECT_EQ(serial.median_log_power, wide.median_log_power);
  EXPECT_EQ(serial.loss_rate, wide.loss_rate);
}

TEST(MergeUseCounts, AddsPositionally) {
  // Single-signal mask: split(0) bisects one dimension -> two whiskers.
  WhiskerTree a({}, 0b0001u), b({}, 0b0001u);
  a.split(0);
  b.split(0);
  ASSERT_EQ(a.size(), 2u);
  a.whisker(0).use_count = 3;
  b.whisker(0).use_count = 4;
  b.whisker(1).use_count = 7;
  a.merge_use_counts(b);
  EXPECT_EQ(a.whisker(0).use_count, 7u);
  EXPECT_EQ(a.whisker(1).use_count, 7u);
}

}  // namespace
}  // namespace phi::remy
