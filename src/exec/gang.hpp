// gang.hpp — a persistent gang of workers with static index assignment,
// plus a reusable cyclic barrier. exec::Pool hands tasks out by atomic
// ticket, which is the right shape for independent reps; intra-run
// sharding needs the opposite: worker i *is* shard i for the whole run,
// so per-shard state (scheduler, packet pool, registry) stays on one
// thread and the barrier protocol can reason about "everyone reached the
// window edge". The calling thread participates as worker 0, so a
// 1-worker gang runs entirely inline and spawns nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace phi::exec {

/// Reusable cyclic barrier: `parties` threads call arrive_and_wait();
/// the last arrival releases the rest and the barrier resets for the
/// next phase. Spin-then-park: a waiting party polls the phase word for
/// up to a fixed time budget (most lookahead windows end within tens of
/// microseconds of each other, far below a futex sleep-and-wake), then
/// blocks in std::atomic::wait. A party spins only while every thread
/// inside a multi-thread Gang::run() round, across the whole process,
/// fits in the CPUs this process may run on (usable_cpus()); otherwise
/// it parks at once, so a pinned or oversubscribed host (concurrent
/// sharded reps, a one-CPU CI runner) never burns the CPU the party it
/// waits for needs.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(std::size_t parties);

  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  void arrive_and_wait();

  std::size_t parties() const noexcept { return parties_; }

 private:
  std::size_t parties_;
  alignas(64) std::atomic<std::size_t> arrived_{0};
  /// Bumped by the last arrival of each phase; waiters poll and park on
  /// it. 32 bits so std::atomic::wait maps onto a bare futex.
  alignas(64) std::atomic<std::uint32_t> phase_{0};
};

/// Fixed-size worker gang. run(fn) executes fn(0) on the calling thread
/// and fn(i) on persistent worker thread i for i in [1, size); it
/// returns when every invocation has finished. Workers park between
/// run() calls, so repeated runs (warmup window, then measurement
/// window) reuse the same threads. Exceptions propagate: the
/// lowest-index worker's exception is rethrown on the caller after all
/// workers finish the round.
class Gang {
 public:
  explicit Gang(std::size_t size);
  ~Gang();

  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  std::size_t size() const noexcept { return size_; }

  void run(const std::function<void(std::size_t)>& fn);

  /// Threads inside a multi-thread run() round right now, summed over
  /// every Gang in the process (the caller counts as one). CyclicBarrier
  /// spins only while this fits in usable_cpus().
  static std::size_t running_threads() noexcept;

 private:
  struct Impl;
  std::size_t size_;
  Impl* impl_ = nullptr;  ///< null when size <= 1 (inline mode)
};

}  // namespace phi::exec
