// The deterministic executor. These tests pin the contract that call
// sites rely on: results in submission order, identical output (values
// and folded telemetry) for any jobs value, exceptions reported by
// lowest task index without poisoning the pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/pool.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace phi::exec {
namespace {

TEST(ResolveJobs, PositivePassesThrough) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(ResolveJobs, ZeroAndNegativeUseHardware) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_GE(resolve_jobs(-3), 1u);
#if defined(__linux__)
  // One job per CPU of the affinity mask, which taskset and cpusets
  // narrow; std::thread::hardware_concurrency() counts every online CPU.
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  const auto cpus = static_cast<unsigned>(CPU_COUNT(&set));
  EXPECT_EQ(usable_cpus(), cpus);
  EXPECT_EQ(resolve_jobs(0), cpus);
  EXPECT_EQ(resolve_jobs(-3), cpus);
#endif
}

TEST(Pool, JobsReportsResolvedWidth) {
  EXPECT_EQ(Pool(1).jobs(), 1u);
  EXPECT_EQ(Pool(4).jobs(), 4u);
}

TEST(Pool, RunsEveryTaskExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(37);
    Pool pool(jobs);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
}

TEST(Pool, ReusableAcrossBatches) {
  Pool pool(4);
  std::atomic<int> total{0};
  pool.run(10, [&](std::size_t) { ++total; });
  pool.run(5, [&](std::size_t) { ++total; });
  pool.run(0, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 15);
}

TEST(ParallelMap, ResultsInInputOrder) {
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  const auto out =
      parallel_map(items, [](int v) { return v * v; }, /*jobs=*/8);
  ASSERT_EQ(out.size(), items.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelMap, IndexOverload) {
  const std::vector<std::string> items{"a", "b", "c"};
  const auto out = parallel_map(
      items,
      [](const std::string& s, std::size_t i) {
        return s + std::to_string(i);
      },
      2);
  EXPECT_EQ(out, (std::vector<std::string>{"a0", "b1", "c2"}));
}

TEST(ParallelMap, EmptyInput) {
  const std::vector<int> none;
  EXPECT_TRUE(parallel_map(none, [](int v) { return v; }, 4).empty());
}

TEST(ParallelMap, SameResultsForAnyJobs) {
  std::vector<int> items(64);
  std::iota(items.begin(), items.end(), 1);
  auto work = [](int v) { return v * 3 - 1; };
  const auto serial = parallel_map(items, work, 1);
  const auto wide = parallel_map(items, work, 8);
  EXPECT_EQ(serial, wide);
}

TEST(Pool, ThrowingTaskRethrownAfterAllComplete) {
  Pool pool(4);
  std::vector<std::atomic<int>> done(16);
  try {
    pool.run(done.size(), [&](std::size_t i) {
      if (i == 5 || i == 11)
        throw std::runtime_error("task " + std::to_string(i));
      ++done[i];
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // Lowest-index exception wins, deterministically.
    EXPECT_STREQ(e.what(), "task 5");
  }
  // Every non-throwing task still ran to completion.
  for (std::size_t i = 0; i < done.size(); ++i)
    EXPECT_EQ(done[i].load(), i == 5 || i == 11 ? 0 : 1);

  // ... and the pool survives for the next batch.
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

#ifndef PHI_TELEMETRY_OFF

// Telemetry published by tasks folds into the submitter's registry in
// submission order — so the merged registry is identical however many
// threads ran the batch.
TEST(Pool, TelemetryFoldIsJobsInvariant) {
  auto run_with = [](int jobs) {
    telemetry::MetricRegistry captured;
    {
      telemetry::ScopedRegistry scope(captured);
      Pool pool(jobs);
      pool.run(24, [](std::size_t i) {
        telemetry::registry().counter("test.pool.tasks").add();
        telemetry::registry()
            .counter("test.pool.weight")
            .add(static_cast<std::uint64_t>(i));
        // Gauge semantics: last writer in submission order wins.
        telemetry::registry().gauge("test.pool.last").set(
            static_cast<double>(i));
        telemetry::registry()
            .histogram("test.pool.size")
            .observe(static_cast<double>(i + 1));
      });
    }
    return captured.json();
  };

  const std::string serial = run_with(1);
  const std::string wide = run_with(8);
  EXPECT_EQ(serial, wide);
  EXPECT_NE(serial.find("test.pool.tasks"), std::string::npos);

  // Spot-check the fold semantics directly.
  telemetry::MetricRegistry captured;
  {
    telemetry::ScopedRegistry scope(captured);
    Pool pool(8);
    pool.run(24, [](std::size_t i) {
      telemetry::registry().gauge("g").set(static_cast<double>(i));
      telemetry::registry().counter("c").add();
    });
  }
  EXPECT_DOUBLE_EQ(captured.gauge("g").value(), 23.0);
  EXPECT_EQ(captured.counter("c").value(), 24u);
}

// A worker task's instruments must not leak into the global registry.
TEST(Pool, TasksDoNotTouchGlobalRegistry) {
  const std::string name = "test.pool.isolated";
  telemetry::MetricRegistry captured;
  {
    telemetry::ScopedRegistry scope(captured);
    Pool pool(4);
    pool.run(4, [&](std::size_t) {
      telemetry::registry().counter(name).add();
    });
  }
  EXPECT_EQ(captured.counter(name).value(), 4u);
  EXPECT_EQ(telemetry::MetricRegistry::global().counter(name).value(), 0u);
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace
}  // namespace phi::exec
