// The deterministic executor. These tests pin the contract that call
// sites rely on: results in submission order, identical output (values
// and folded telemetry) for any jobs value, exceptions reported by
// lowest task index once every task has finished, and a task round that
// counts each of its threads once toward the window barrier's spin rule.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/gang.hpp"
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

TEST(RunTasks, RunsEveryTaskExactlyOnce) {
  for (const int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(37);
    run_tasks(hits.size(), [&](std::size_t i) { ++hits[i]; }, jobs);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
    // An empty batch runs nothing.
    run_tasks(0, [&](std::size_t i) { ++hits[i]; }, jobs);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "jobs=" << jobs;
  }
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

TEST(RunTasks, ThrowingTaskRethrownAfterAllComplete) {
  std::vector<std::atomic<int>> done(16);
  try {
    run_tasks(
        done.size(),
        [&](std::size_t i) {
          if (i == 5 || i == 11)
            throw std::runtime_error("task " + std::to_string(i));
          ++done[i];
        },
        4);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // Lowest-index exception wins, deterministically.
    EXPECT_STREQ(e.what(), "task 5");
  }
  // Every non-throwing task still ran to completion.
  for (std::size_t i = 0; i < done.size(); ++i)
    EXPECT_EQ(done[i].load(), i == 5 || i == 11 ? 0 : 1);

  // ... and the next batch runs normally.
  std::atomic<int> total{0};
  run_tasks(8, [&](std::size_t) { ++total; }, 4);
  EXPECT_EQ(total.load(), 8);
}

// Records Gang::running_threads() on `parties` threads, each read between
// two arrivals at a barrier that all of them must reach, so no thread of
// the round has left the count yet.
struct CountProbe {
  explicit CountProbe(std::size_t parties)
      : barrier(parties), seen(parties, 0) {}
  void read(std::size_t slot) {
    barrier.arrive_and_wait();
    seen[slot] = Gang::running_threads();
    barrier.arrive_and_wait();
  }
  CyclicBarrier barrier;
  std::vector<std::size_t> seen;
};

// The window barrier spins only while Gang::running_threads() fits in
// the usable CPUs, so a task round must count each of its threads once:
// also when a task runs a sharded rep (a gang round of its own), and not
// past the point where a thread runs out of tasks.
TEST(RunTasks, EveryThreadCountsOnceTowardTheSpinRule) {
  const std::size_t before = Gang::running_threads();
  {
    CountProbe probe(4);
    run_tasks(4, [&](std::size_t i) { probe.read(i); }, 4);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(probe.seen[i], before + 4) << "task " << i;
  }
  {
    // Each task runs a 2-wide gang, as a 2-shard rep does: its caller is
    // already counted, so the process holds 8 running threads, not 12.
    CountProbe probe(8);
    run_tasks(
        4,
        [&](std::size_t i) {
          Gang rep(2);
          rep.run([&](std::size_t s) { probe.read(2 * i + s); });
        },
        4);
    for (std::size_t k = 0; k < 8; ++k)
      EXPECT_EQ(probe.seen[k], before + 8) << "rep thread " << k;
  }
  {
    // Two tasks start two threads, not one per job.
    CountProbe probe(2);
    run_tasks(2, [&](std::size_t i) { probe.read(i); }, 8);
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_EQ(probe.seen[i], before + 2) << "task " << i;
  }
  {
    // Threads that ran out of tasks leave the count while the last task
    // still runs.
    std::size_t last = 0;
    run_tasks(
        3,
        [&](std::size_t i) {
          if (i != 2) return;
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          do {
            last = Gang::running_threads();
            std::this_thread::yield();
          } while (last != before + 1 &&
                   std::chrono::steady_clock::now() < give_up);
        },
        3);
    EXPECT_EQ(last, before + 1);
  }
  EXPECT_EQ(Gang::running_threads(), before);
}

#ifndef PHI_TELEMETRY_OFF

// Telemetry published by tasks folds into the submitter's registry in
// submission order — so the merged registry is identical however many
// threads ran the batch.
TEST(RunTasks, TelemetryFoldIsJobsInvariant) {
  auto run_with = [](int jobs) {
    telemetry::MetricRegistry captured;
    {
      telemetry::ScopedRegistry scope(captured);
      run_tasks(
          24,
          [](std::size_t i) {
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
          },
          jobs);
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
    run_tasks(
        24,
        [](std::size_t i) {
          telemetry::registry().gauge("g").set(static_cast<double>(i));
          telemetry::registry().counter("c").add();
        },
        8);
  }
  EXPECT_DOUBLE_EQ(captured.gauge("g").value(), 23.0);
  EXPECT_EQ(captured.counter("c").value(), 24u);
}

// A worker task's instruments must not leak into the global registry.
TEST(RunTasks, TasksDoNotTouchGlobalRegistry) {
  const std::string name = "test.pool.isolated";
  telemetry::MetricRegistry captured;
  {
    telemetry::ScopedRegistry scope(captured);
    run_tasks(
        4, [&](std::size_t) { telemetry::registry().counter(name).add(); },
        4);
  }
  EXPECT_EQ(captured.counter(name).value(), 4u);
  EXPECT_EQ(telemetry::MetricRegistry::global().counter(name).value(), 0u);
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace
}  // namespace phi::exec
