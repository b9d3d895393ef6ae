// The ISSUE-level determinism guarantee: a parallel sweep produces a
// SweepResult bit-identical to the serial one — same seeds, same
// submission-order collection, same fold — for any jobs value. These
// comparisons are exact (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>

#include "phi/presets.hpp"
#include "phi/sweep.hpp"
#include "telemetry/telemetry.hpp"

namespace phi::core {
namespace {

ScenarioSpec mini_scenario() {
  ScenarioSpec spec = presets::paper_dumbbell(4);
  spec.workload.mean_on_bytes = 100e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(10);
  spec.seed = 3;
  return spec;
}

SweepSpec small_grid(int jobs) {
  SweepSpec spec;
  spec.ssthresh = {2, 64};
  spec.winit = {2};
  spec.betas = {0.2, 0.8};
  spec.jobs = jobs;
  return spec;
}

void expect_metrics_eq(const ScenarioMetrics& a, const ScenarioMetrics& b) {
  EXPECT_EQ(a.throughput_bps, b.throughput_bps);
  EXPECT_EQ(a.mean_queue_delay_s, b.mean_queue_delay_s);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_rtt_s, b.mean_rtt_s);
  EXPECT_EQ(a.min_rtt_s, b.min_rtt_s);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

void expect_sweep_eq(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.default_index, b.default_index);
  EXPECT_EQ(a.n_runs, b.n_runs);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const SweepPoint& pa = a.points[p];
    const SweepPoint& pb = b.points[p];
    EXPECT_EQ(pa.params, pb.params);
    EXPECT_EQ(pa.score, pb.score);
    expect_metrics_eq(pa.mean, pb.mean);
    ASSERT_EQ(pa.runs.size(), pb.runs.size());
    for (std::size_t r = 0; r < pa.runs.size(); ++r)
      expect_metrics_eq(pa.runs[r], pb.runs[r]);
  }
}

TEST(ParallelSweep, BitIdenticalToSerial) {
  const ScenarioSpec base = mini_scenario();
  const SweepResult serial = run_cubic_sweep(base, small_grid(1), 2);
  const SweepResult wide = run_cubic_sweep(base, small_grid(8), 2);
  expect_sweep_eq(serial, wide);
}

TEST(ParallelSweep, DefaultJobsMatchesSerialToo) {
  const ScenarioSpec base = mini_scenario();
  const SweepResult serial = run_cubic_sweep(base, small_grid(1), 1);
  const SweepResult hw = run_cubic_sweep(base, small_grid(0), 1);
  expect_sweep_eq(serial, hw);
}

TEST(ParallelSweep, ProgressSerializedAndMonotonic) {
  const ScenarioSpec base = mini_scenario();
  std::atomic<int> calls{0};
  std::size_t last_done = 0;
  bool monotonic = true;
  // The progress mutex serializes callbacks, so plain reads/writes of
  // last_done here are safe.
  run_cubic_sweep(base, small_grid(4), 2,
                  [&](std::size_t done, std::size_t total) {
                    ++calls;
                    monotonic = monotonic && done == last_done + 1;
                    last_done = done;
                    // 4 grid combos + the appended default, x 2 runs.
                    EXPECT_EQ(total, 10u);
                  });
  EXPECT_EQ(calls.load(), 10);
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(last_done, 10u);
}

#ifndef PHI_TELEMETRY_OFF

// Telemetry captured around the sweep folds in submission order, so the
// exported registry is identical however many workers ran it.
TEST(ParallelSweep, CapturedTelemetryIsJobsInvariant) {
  const ScenarioSpec base = mini_scenario();
  auto capture = [&](int jobs) {
    telemetry::MetricRegistry reg;
    {
      telemetry::ScopedRegistry scope(reg);
      run_cubic_sweep(base, small_grid(jobs), 2);
    }
    return reg.json();
  };
  EXPECT_EQ(capture(1), capture(8));
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace
}  // namespace phi::core
