// Scheduler ordering fuzz smoke: randomized workloads must execute in
// nondecreasing time with FIFO tie-breaks — byte-identical goldens hang
// off this contract. Each case is checked against a reference model (a
// stable sort of the surviving schedules), and the workload mix is
// chosen to cross every structural regime of the timing wheel:
//   - same-timestamp storms (hundreds of events on one deadline),
//   - deadlines spanning level 0/1/2 and the far-future overflow heap,
//   - heavy cancel churn (compaction sweeps),
//   - pending sets that swing between small and large, so the wheel
//     drains empty and refills,
//   - mid-drain rescheduling from inside callbacks.
// CI runs this under ASan+UBSan, where the arena/bucket pointer chasing
// and the compaction sweeps get memory-checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/rng.hpp"

namespace phi::sim {
namespace {

struct Expected {
  util::Time time;
  std::uint64_t order;  ///< schedule order, the FIFO tie-break key
  bool operator<(const Expected& o) const {
    return time != o.time ? time < o.time : order < o.order;
  }
};

// Deadline spans per regime, in ns. Level 0 ticks are 1.024 us and each
// level covers 10 more bits, so these reach buckets on every level plus
// the overflow heap.
constexpr util::Time kSpans[] = {
    1 << 10,            // a handful of level-0 ticks
    1 << 20,            // level 1
    1 << 29,            // level 2
    util::Time{1} << 33,  // beyond the wheel horizon: overflow heap
};

class SchedulerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerFuzz, RandomChurnExecutesInFifoTimeOrder) {
  util::Rng rng(GetParam());
  Scheduler s;
  std::vector<Expected> executed;
  std::vector<Expected> expected;
  std::vector<std::pair<EventId, Expected>> live;
  std::uint64_t order = 0;
  util::Time horizon = 0;

  const auto schedule = [&](util::Time t) {
    const Expected ex{t, order++};
    const EventId id =
        s.schedule_at(t, [&executed, ex] { executed.push_back(ex); });
    live.emplace_back(id, ex);
    horizon = std::max(horizon, t);
  };

  // Phase interleaving: bursts of scheduling at mixed horizons, cancel
  // waves, and partial drains, repeated. Partial drains are what force
  // cascades and overflow migration while events are still pending.
  for (int round = 0; round < 6; ++round) {
    // Same-timestamp storm: a burst sharing one exact deadline.
    const util::Time storm_t =
        s.now() + 1 +
        static_cast<util::Time>(rng.below(static_cast<std::uint64_t>(kSpans[round % 4])));
    const int storm_n = 50 + static_cast<int>(rng.below(250));
    for (int i = 0; i < storm_n; ++i) schedule(storm_t);
    // Scatter across all regimes (the pending set is large some rounds,
    // small in others).
    const int scatter_n = static_cast<int>(rng.below(300));
    for (int i = 0; i < scatter_n; ++i) {
      const util::Time span = kSpans[rng.below(4)];
      schedule(s.now() + 1 +
               static_cast<util::Time>(rng.below(static_cast<std::uint64_t>(span))));
    }
    // Cancel wave: ~30% of whatever is still scheduled. cancel() fails
    // for events that already ran during a partial drain — those stay in
    // `live` so the reference model counts their execution.
    std::vector<std::pair<EventId, Expected>> survivors;
    for (auto& [id, ex] : live) {
      if (!(rng.bernoulli(0.3) && s.cancel(id))) survivors.emplace_back(id, ex);
    }
    live = std::move(survivors);
    // Partial drain to a random point below the max pending deadline.
    const util::Time target =
        s.now() + static_cast<util::Time>(
                      rng.below(static_cast<std::uint64_t>(horizon - s.now() + 1)));
    s.run_until(target);
  }
  // Mid-drain rescheduling: a chain that re-arms itself from inside its
  // own callback while the final drain is running.
  int chain = 0;
  const auto arm = [&](auto&& self) -> void {
    const util::Time t = s.now() + 1 + static_cast<util::Time>(rng.below(1000));
    const Expected ex{t, order++};
    expected.push_back(ex);  // chain events are never cancelled
    s.schedule_at(t, [&, ex, self] {
      executed.push_back(ex);
      if (++chain < 100) self(self);
    });
  };
  arm(arm);
  s.run_until(horizon + 1'000'000);
  EXPECT_EQ(s.pending_count(), 0u);

  // Reference model: everything never successfully cancelled (plus the
  // chain events, added at arm time), stably ordered by (time, schedule
  // order) — exactly the contract the wheel must honor.
  for (auto& [id, ex] : live) {
    (void)id;
    expected.push_back(ex);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    ASSERT_EQ(executed[i].time, expected[i].time) << "at " << i;
    ASSERT_EQ(executed[i].order, expected[i].order) << "at " << i;
  }
  // The executed stream itself must be nondecreasing in time with
  // strictly increasing tie-break order (FIFO at equal times).
  for (std::size_t i = 1; i < executed.size(); ++i) {
    ASSERT_LE(executed[i - 1].time, executed[i].time);
    if (executed[i - 1].time == executed[i].time)
      ASSERT_LT(executed[i - 1].order, executed[i].order);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFuzz,
                         ::testing::Values(0xA11CE, 0xB0B, 0xC0FFEE, 7, 21,
                                           1337));

// Cancel waves on an oscillating pending set: alternating small and
// large waves, half of each cancelled newest-first, so dead entries pile
// up in the wheel buckets and the run buffer between drains and the
// compaction sweep runs on both, while live events keep their order.
TEST(SchedulerFuzz, ModeBoundaryOscillationKeepsOrder) {
  util::Rng rng(0x5EED);
  Scheduler s;
  std::vector<Expected> executed;
  std::vector<Expected> expected;
  std::uint64_t order = 0;
  std::vector<std::pair<EventId, Expected>> pending;
  for (int wave = 0; wave < 40; ++wave) {
    // Alternate small and large waves.
    const int n = wave % 2 == 0 ? 40 : 200;
    for (int i = 0; i < n; ++i) {
      const util::Time t =
          s.now() + 1 + static_cast<util::Time>(rng.below(50'000));
      const Expected ex{t, order++};
      pending.emplace_back(
          s.schedule_at(t, [&executed, ex] { executed.push_back(ex); }), ex);
    }
    // Cancel half of the most recent wave, newest-first (the re-armed
    // timer pattern).
    for (int i = 0; i < n / 2 && !pending.empty(); ++i) {
      const std::size_t pick = pending.size() - 1 - rng.below(pending.size());
      if (s.cancel(pending[pick].first))
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Drain roughly half the pending window.
    s.run_until(s.now() + 25'000);
  }
  s.run_until(s.now() + 100'000);
  EXPECT_EQ(s.pending_count(), 0u);
  // `pending` holds exactly the never-successfully-cancelled events
  // (cancel() only succeeds on events that have not run, and an executed
  // event is never erased), so the reference is an exact match.
  for (auto& [id, ex] : pending) {
    (void)id;
    expected.push_back(ex);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    ASSERT_EQ(executed[i].time, expected[i].time) << "at " << i;
    ASSERT_EQ(executed[i].order, expected[i].order) << "at " << i;
  }
}

}  // namespace
}  // namespace phi::sim
