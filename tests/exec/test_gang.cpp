// The worker gang and cyclic barrier behind intra-run sharding. These
// tests pin what ShardedRun relies on: a barrier phase publishes every
// party's writes to every other party, whether the waiters spin, give up
// spinning and park, or park at once; the lowest-index exception is
// rethrown only once the whole round has finished; a gang survives a
// throw without skewing the process-wide count of gang threads the
// barrier's spin rule reads; and a gang of size 0 or 1 runs inline on
// the caller.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/gang.hpp"

namespace phi::exec {
namespace {

// Runs `parties` gang workers through `phases` barrier phases and
// returns how many reads missed another party's write. Two rows are
// used alternately, as ShardedRun's boundary buffers are: a party
// rewrites row p & 1 in phase p + 2 only after the barrier that closes
// phase p + 1, which no party reaches before finishing its phase-p
// reads. Plain (non-atomic) slots: the barrier alone must order every
// access. `stall(me, p)` runs between a party's write and its arrival.
template <typename Stall>
std::uint64_t unpublished_reads(std::size_t parties, std::uint64_t phases,
                                Stall stall) {
  std::vector<std::uint64_t> slots(2 * parties, 0);
  std::vector<std::uint64_t> mismatches(parties, 0);
  Gang gang(parties);
  CyclicBarrier barrier(parties);
  gang.run([&](std::size_t me) {
    for (std::uint64_t p = 1; p <= phases; ++p) {
      std::uint64_t* row = &slots[(p & 1) * parties];
      row[me] = p * parties + me;
      stall(me, p);
      barrier.arrive_and_wait();
      for (std::size_t j = 0; j < parties; ++j) {
        if (row[j] != p * parties + j) ++mismatches[me];
      }
    }
  });
  std::uint64_t total = 0;
  for (const std::uint64_t m : mismatches) total += m;
  return total;
}

TEST(CyclicBarrier, EachPhasePublishesEveryPartysWrite) {
  // On a 4-CPU host, 2 and 4 parties fit in the affinity mask, so
  // waiters spin; 8 do not, so they park at once.
  for (const std::size_t parties : {2, 4, 8}) {
    EXPECT_EQ(unpublished_reads(parties, 10000,
                                [](std::size_t, std::uint64_t) {}),
              0u)
        << parties << " parties";
  }
}

TEST(CyclicBarrier, PartyPastTheSpinBudgetStillPublishes) {
  // Party 1 arrives 2 ms late on every third phase, several times the
  // spin budget: the other parties spin, give up and park, and the last
  // arrival must still wake every one of them with every write visible.
  EXPECT_EQ(unpublished_reads(4, 300,
                              [](std::size_t me, std::uint64_t p) {
                                if (me == 1 && p % 3 == 0) {
                                  std::this_thread::sleep_for(
                                      std::chrono::milliseconds(2));
                                }
                              }),
            0u);
}

TEST(Gang, RethrowsLowestIndexOnlyAfterTheRoundFinishes) {
  Gang gang(4);
  std::vector<int> finished(4, 0);
  try {
    gang.run([&](std::size_t i) {
      // Worker 3 fails first, worker 1 later: the lower index wins, not
      // the earlier throw. The caller (worker 0) returns at once and
      // worker 2 outlasts both throws, so the caller must wait for it.
      if (i == 3) throw std::runtime_error("3");
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("1");
      }
      if (i == 2) std::this_thread::sleep_for(std::chrono::milliseconds(60));
      finished[i] = 1;
    });
    FAIL() << "the round's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "1");
  }
  EXPECT_EQ(finished[0], 1);
  EXPECT_EQ(finished[2], 1) << "rethrown before worker 2 finished";
}

TEST(Gang, ReusableAfterAThrow) {
  Gang gang(4);
  EXPECT_THROW(gang.run([](std::size_t i) {
                 if (i == 2) throw std::logic_error("2");
               }),
               std::logic_error);
  // Every worker is still alive (the barrier needs all four) and the
  // previous round's exception is not rethrown again.
  std::vector<int> hits(4, 0);
  CyclicBarrier barrier(4);
  EXPECT_NO_THROW(gang.run([&](std::size_t i) {
    barrier.arrive_and_wait();
    ++hits[i];
    barrier.arrive_and_wait();
  }));
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i], 1) << "worker " << i;
}

TEST(Gang, ThrowingRoundLeavesRunningThreadsUnchanged) {
  const std::size_t before = Gang::running_threads();
  Gang gang(4);
  std::vector<std::size_t> inside(4, 0);
  // A worker leaves the count when its call returns, so each reads it
  // between two arrivals that every worker must make first.
  CyclicBarrier barrier(4);
  EXPECT_THROW(gang.run([&](std::size_t i) {
                 barrier.arrive_and_wait();
                 inside[i] = Gang::running_threads();
                 barrier.arrive_and_wait();
                 if (i == 2) throw std::runtime_error("2");
               }),
               std::runtime_error);
  for (std::size_t i = 0; i < inside.size(); ++i)
    EXPECT_EQ(inside[i], before + 4) << "worker " << i;
  // A leaked count would make every later barrier in the process park
  // instead of spin.
  EXPECT_EQ(Gang::running_threads(), before);
  // An inline gang runs no threads of its own and is not counted.
  Gang solo(1);
  std::size_t inline_count = 0;
  solo.run([&](std::size_t) { inline_count = Gang::running_threads(); });
  EXPECT_EQ(inline_count, before);
}

TEST(Gang, SizesZeroAndOneRunInlineOnTheCaller) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}}) {
    Gang gang(n);
    EXPECT_EQ(gang.size(), 1u) << "size " << n;
    std::vector<std::size_t> indices;
    std::thread::id ran_on;
    gang.run([&](std::size_t i) {
      indices.push_back(i);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(indices, std::vector<std::size_t>{0}) << "size " << n;
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "size " << n;
    EXPECT_THROW(
        gang.run([](std::size_t) { throw std::runtime_error("inline"); }),
        std::runtime_error);
  }
  // The matching one-party barrier never blocks.
  CyclicBarrier solo(0);
  EXPECT_EQ(solo.parties(), 1u);
  solo.arrive_and_wait();
}

}  // namespace
}  // namespace phi::exec
