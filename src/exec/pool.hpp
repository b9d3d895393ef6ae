// pool.hpp — the deterministic parallel executor. The paper's evaluation
// is embarrassingly parallel (§2.2.1: 576 Cubic settings x 8 repetitions,
// each an independent simulation), and so are the Remy training rounds
// and every bench repetition loop. Pool runs such independent tasks
// across threads while guaranteeing that the *observable result* — the
// returned values, the folded telemetry, which RNG stream each task sees
// — is bit-identical to running them one after another.
//
// The determinism contract (see docs/PARALLELISM.md):
//   1. Tasks are claimed from a single atomic ticket counter — no work
//      stealing, no per-thread queues — so scheduling has no state that
//      could leak into results.
//   2. Results land in submission order: task i writes slot i.
//   3. Each task runs under its own telemetry::ScopedRegistry; after the
//      barrier the pool folds the task registries into the submitter's
//      registry in submission order (MetricRegistry::merge is a
//      deterministic fold).
//   4. Tasks must not share mutable state and must derive their RNG
//      streams from (base seed, task index) via util::derive_seed — never
//      from anything execution-order dependent.
//
// jobs semantics everywhere in this repo: 0 = one job per usable CPU
// (usable_cpus()), 1 = run inline on the caller (no worker threads at
// all, the pre-parallelism behavior), n = caller plus n-1 workers.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"

namespace phi::exec {

/// CPUs this process may run on: the size of its affinity mask, which
/// taskset and cpusets narrow. std::thread::hardware_concurrency()
/// counts every online CPU instead; it is only the fallback where the
/// mask cannot be read. Computed once; at least 1.
unsigned usable_cpus() noexcept;

/// Resolve a jobs request: <= 0 means one per usable CPU.
unsigned resolve_jobs(int jobs) noexcept;

class Pool {
 public:
  /// Spawns jobs-1 worker threads (the caller is the remaining job).
  /// jobs <= 0 resolves to usable_cpus().
  explicit Pool(int jobs = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  unsigned jobs() const noexcept {
    return static_cast<unsigned>(threads_count_ + 1);
  }

  /// Run task(0) .. task(n-1) to completion (the caller participates).
  /// Per-task telemetry is folded into the caller's current registry
  /// after the barrier, in task order. If tasks threw, the exception of
  /// the lowest-indexed throwing task is rethrown — after every task has
  /// finished and telemetry has been folded, so the pool stays reusable.
  void run(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  struct Impl;
  void work() noexcept;

  Impl* impl_ = nullptr;     // worker coordination; null when jobs == 1
  std::size_t threads_count_ = 0;
};

/// Map `fn` over `items` with `jobs`-way parallelism, returning results
/// in input order. `fn` is invoked as fn(item) or, if it accepts one,
/// fn(item, index). Inherits Pool's determinism contract; prefer one
/// parallel_map over a flattened item list to nesting parallel regions
/// (nesting oversubscribes rather than deadlocks, but never helps).
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, Fn&& fn, int jobs = 0) {
  constexpr bool kWithIndex =
      std::is_invocable_v<Fn&, const Item&, std::size_t>;
  using R = typename std::conditional_t<
      kWithIndex,
      std::invoke_result<Fn&, const Item&, std::size_t>,
      std::invoke_result<Fn&, const Item&>>::type;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are preallocated");
  std::vector<R> out(items.size());
  Pool pool(jobs);
  pool.run(items.size(), [&](std::size_t i) {
    if constexpr (kWithIndex) {
      out[i] = fn(items[i], i);
    } else {
      out[i] = fn(items[i]);
    }
  });
  return out;
}

}  // namespace phi::exec
