// The worker gang and cyclic barrier behind intra-run sharding. These
// tests pin what ShardedRun relies on: a barrier phase publishes every
// party's writes to every other party, the lowest-index exception is
// rethrown only once the whole round has finished, a gang survives a
// throw, and a gang of size 0 or 1 runs inline on the caller.
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

TEST(CyclicBarrier, EachPhasePublishesEveryPartysWrite) {
  constexpr std::size_t kParties = 4;
  constexpr std::uint64_t kPhases = 10000;
  // Two rows used alternately, as ShardedRun's boundary buffers are: a
  // party rewrites row p & 1 in phase p + 2 only after the barrier that
  // closes phase p + 1, which no party reaches before finishing its
  // phase-p reads. Plain (non-atomic) slots: the barrier alone must
  // order every access.
  std::uint64_t slots[2][kParties] = {};
  std::vector<std::uint64_t> mismatches(kParties, 0);
  Gang gang(kParties);
  CyclicBarrier barrier(kParties);
  gang.run([&](std::size_t me) {
    for (std::uint64_t p = 1; p <= kPhases; ++p) {
      std::uint64_t* row = slots[p & 1];
      row[me] = p * kParties + me;
      barrier.arrive_and_wait();
      for (std::size_t j = 0; j < kParties; ++j) {
        if (row[j] != p * kParties + j) ++mismatches[me];
      }
    }
  });
  for (std::size_t i = 0; i < kParties; ++i)
    EXPECT_EQ(mismatches[i], 0u) << "party " << i;
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
