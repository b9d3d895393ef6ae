#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/rng.hpp"

namespace phi::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 100);
}

TEST(Scheduler, SimultaneousEventsAreFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run_until(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.pending(id));
  EXPECT_FALSE(s.cancel(id));  // double cancel
  s.run_until(100);
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterRunFails) {
  Scheduler s;
  const EventId id = s.schedule_at(1, [] {});
  s.run_until(10);
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  bool late = false;
  s.schedule_at(50, [&] { late = true; });
  s.run_until(49);
  EXPECT_FALSE(late);
  EXPECT_EQ(s.now(), 49);
  s.run_until(50);
  EXPECT_TRUE(late);
}

TEST(Scheduler, CallbackCanReschedule) {
  Scheduler s;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 5) s.schedule_in(10, tick);
  };
  s.schedule_at(0, tick);
  s.run_until(1000);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.executed_count(), 5u);
}

TEST(Scheduler, SchedulingInPastClampsToNow) {
  // A past deadline is a caller bug — debug builds assert. Release builds
  // must not corrupt the queue (the old code threw, which tore down the
  // sim mid-callback): the deadline is clamped to now() and the event
  // runs in FIFO order after everything already due at now().
  Scheduler s;
  s.schedule_at(10, [] {});
  s.run_until(10);
  EXPECT_DEBUG_DEATH(s.schedule_at(5, [] {}),
                     "schedule_at: deadline in the past");
#ifdef NDEBUG
  // Observable clamp semantics (the statement above already scheduled one
  // clamped no-op event in release builds).
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(1); });  // already due at now()
  s.schedule_at(5, [&] { order.push_back(2); });   // past -> clamped to 10
  s.schedule_at(10, [&] { order.push_back(3); });
  s.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 10);
#endif
  s.schedule_at(s.now(), [] {});  // t == now() stays legal in all builds
  EXPECT_GE(s.pending_count(), 1u);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  util::Time seen = -1;
  s.schedule_at(77, [&] { seen = s.now(); });
  s.run_until(1000);
  EXPECT_EQ(seen, 77);
}

TEST(Scheduler, RunUntilReturnsZeroWhenEmpty) {
  Scheduler s;
  EXPECT_EQ(s.run_until(10), 0u);
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.run_until(20), 1u);
  EXPECT_EQ(s.run_until(30), 0u);
}

TEST(Scheduler, FarFutureDeadlinesRunInOrder) {
  // Deadlines for the wheel's upper levels: just past the first
  // ~18-minute rotation (1100 s), an hour (twice: a FIFO tie), a day, a
  // year (cancelled), and the last two nanoseconds of the clock, whose
  // tick only the top level holds. Scheduled out of order, they run in
  // (time, schedule order) like near deadlines do.
  constexpr util::Time kEnd = std::numeric_limits<util::Time>::max();
  constexpr util::Time kHour = 3600 * util::kSecond;
  Scheduler s;
  std::vector<std::pair<char, util::Time>> order;
  const auto note = [&](char name) {
    return [&order, &s, name] { order.emplace_back(name, s.now()); };
  };
  s.schedule_at(kEnd, note('Z'));
  s.schedule_at(24 * kHour, note('D'));
  s.schedule_at(kHour, note('H'));
  const EventId year = s.schedule_at(365 * 24 * kHour, note('Y'));
  s.schedule_at(kEnd - 1, note('E'));
  s.schedule_at(1100 * util::kSecond, note('R'));
  s.schedule_at(kHour, note('I'));  // tied with H, scheduled after it
  ASSERT_TRUE(s.cancel(year));

  EXPECT_EQ(s.run_until(1800 * util::kSecond), 1u);
  EXPECT_EQ(order, (std::vector<std::pair<char, util::Time>>{
                       {'R', 1100 * util::kSecond}}));
  EXPECT_EQ(s.run_until(kEnd), 5u);
  const std::vector<std::pair<char, util::Time>> want = {
      {'R', 1100 * util::kSecond}, {'H', kHour},  {'I', kHour},
      {'D', 24 * kHour},           {'E', kEnd - 1}, {'Z', kEnd}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.heap_size(), 0u);
  EXPECT_EQ(s.now(), kEnd);
}

TEST(Scheduler, ScheduleInSaturatesAtTheEndOfTheClock) {
  // now() + d past the largest Time files at the largest Time; it must
  // not wrap negative and be clamped to now().
  constexpr util::Time kEnd = std::numeric_limits<util::Time>::max();
  Scheduler s;
  s.run_until(util::kSecond);
  bool ran = false;
  const EventId id = s.schedule_in(std::numeric_limits<util::Duration>::max(),
                                   [&] { ran = true; });
  s.run_until(kEnd - 1);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(s.pending(id));
  s.run_until(kEnd);
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), kEnd);
}

TEST(Scheduler, PendingCountTracksQueue) {
  Scheduler s;
  EXPECT_EQ(s.pending_count(), 0u);
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending_count(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending_count(), 1u);
  s.run_until(100);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Scheduler, CancelHeavyWorkloadKeepsHeapBounded) {
  // A rearm-on-every-ACK retransmit timer: schedule, cancel, repeat.
  // Without compaction the heap retains every cancelled entry (100k
  // here); with it, dead entries never outnumber live ones ~2:1 past a
  // small floor.
  Scheduler s;
  EventId timer = s.schedule_at(1'000'000'000, [] {});
  for (int i = 1; i <= 100'000; ++i) {
    s.cancel(timer);
    timer = s.schedule_at(1'000'000'000 + i, [] {});
  }
  EXPECT_EQ(s.pending_count(), 1u);
  EXPECT_LT(s.heap_size(), 128u);
  s.run_until(2'000'000'000);
  EXPECT_EQ(s.executed_count(), 1u);
  EXPECT_EQ(s.heap_size(), 0u);
}

TEST(Scheduler, CompactionPreservesOrderAndLiveEvents) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i)
    s.schedule_at(10'000 + i * 10, [&order, i] { order.push_back(i); });
  // Heavy churn interleaved with the live events, forcing many compactions.
  util::Rng rng(42);
  for (int i = 0; i < 20'000; ++i) {
    const EventId id = s.schedule_at(
        static_cast<util::Time>(rng.below(9'000)), [] { FAIL(); });
    ASSERT_TRUE(s.cancel(id));
  }
  EXPECT_EQ(s.pending_count(), 50u);
  s.run_until(100'000);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, MidDrainInsertsIntoRunBufferKeepFifoOrder) {
  // Level-0 ticks are 1.024 us, so [10'240, 11'264) ns is one tick: all
  // four events are collected into the run buffer together. The first
  // callback then inserts into the middle of that non-empty buffer, with
  // one deadline strictly between two pending ones and two tied with
  // pending ones; ties run after the earlier-scheduled event.
  Scheduler s;
  std::vector<std::pair<char, util::Time>> order;
  const auto note = [&](char name) {
    return [&order, &s, name] { order.emplace_back(name, s.now()); };
  };
  s.schedule_at(10'300, [&] {
    order.emplace_back('A', s.now());
    s.schedule_at(10'600, note('X'));  // between B and C
    s.schedule_at(11'100, note('Y'));  // tied with D
    s.schedule_at(10'500, note('Z'));  // tied with B
  });
  s.schedule_at(10'500, note('B'));
  s.schedule_at(10'700, note('C'));
  s.schedule_at(11'100, note('D'));
  s.run_until(20'000);
  const std::vector<std::pair<char, util::Time>> want = {
      {'A', 10'300}, {'B', 10'500}, {'Z', 10'500}, {'X', 10'600},
      {'C', 10'700}, {'D', 11'100}, {'Y', 11'100}};
  EXPECT_EQ(order, want);
}

// Property: random schedule/cancel workload executes in nondecreasing
// time order with FIFO tie-breaks.
class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, RandomWorkloadOrdered) {
  util::Rng rng(GetParam());
  Scheduler s;
  std::vector<std::pair<util::Time, std::uint64_t>> executed;
  std::vector<EventId> ids;
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    const util::Time t = static_cast<util::Time>(rng.below(1000));
    const std::uint64_t my_seq = seq++;
    ids.push_back(s.schedule_at(t, [&executed, t, my_seq] {
      executed.emplace_back(t, my_seq);
    }));
  }
  // Cancel a random 20%.
  std::size_t cancelled = 0;
  for (const EventId id : ids)
    if (rng.bernoulli(0.2) && s.cancel(id)) ++cancelled;
  s.run_until(2000);
  EXPECT_EQ(executed.size(), 500u - cancelled);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    ASSERT_LE(executed[i - 1].first, executed[i].first);
    if (executed[i - 1].first == executed[i].first) {
      ASSERT_LT(executed[i - 1].second, executed[i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(1, 2, 3, 99, 12345));

}  // namespace
}  // namespace phi::sim
