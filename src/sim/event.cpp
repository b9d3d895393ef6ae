#include "sim/event.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

namespace phi::sim {

namespace {
/// Below this size the wheel is too small for dead entries to matter;
/// skipping compaction keeps the common tiny-schedule case allocation-free.
constexpr std::size_t kCompactFloor = 64;
/// Tick limit meaning "no horizon": advance() may walk the whole wheel.
constexpr std::int64_t kNoLimit = std::numeric_limits<std::int64_t>::max();
/// Initial wheel-node and run-buffer capacities.
constexpr std::size_t kArenaReserve = 1024;
constexpr std::size_t kDueReserve = 256;

using Prof = telemetry::LoopProfile;

/// Run `body` as loop section `section`: with kProfiled, count it
/// exactly and clock it when the 1-in-kSampleStride gate fires.
template <bool kProfiled, typename F>
inline void run_section([[maybe_unused]] Prof* prof,
                        [[maybe_unused]] unsigned section, F&& body) {
  if constexpr (kProfiled) {
    const bool timed = prof->gate();
    const std::uint64_t t0 = timed ? telemetry::profile_clock_ns() : 0;
    body();
    prof->count(section);
    if (timed) prof->add_time(section, telemetry::profile_clock_ns() - t0);
  } else {
    body();
  }
}
}  // namespace

Scheduler::Scheduler()
    : ctr_scheduled_(
          &telemetry::registry().counter("sim.scheduler.events_scheduled")),
      ctr_executed_(
          &telemetry::registry().counter("sim.scheduler.events_executed")),
      ctr_cancelled_(
          &telemetry::registry().counter("sim.scheduler.events_cancelled")),
      ctr_compactions_(
          &telemetry::registry().counter("sim.scheduler.compactions")),
      entries_gauge_(&telemetry::registry().gauge("sim.scheduler.heap_size")),
      due_gauge_(&telemetry::registry().gauge("sim.scheduler.due_size")),
      occupied_gauge_(&telemetry::registry().gauge(
          "sim.scheduler.wheel_occupied_buckets")) {
  for (Level& l : levels_) l.head.fill(-1);
  // Every event goes through the wheel, so reserve enough that a
  // single-flow run reaches its steady state without regrowing.
  arena_.reserve(kArenaReserve);
  node_free_.reserve(kArenaReserve);
  due_.reserve(kDueReserve);
}

std::int32_t Scheduler::alloc_node() {
  if (!node_free_.empty()) {
    const std::int32_t n = node_free_.back();
    node_free_.pop_back();
    return n;
  }
  arena_.emplace_back();
  return static_cast<std::int32_t>(arena_.size() - 1);
}

void Scheduler::bucket_push(Level& l, std::size_t idx, const Entry& e) {
  const std::int32_t n = alloc_node();
  arena_[n].e = e;
  arena_[n].next = l.head[idx];
  l.head[idx] = n;
  set_bit(l, idx);
}

std::size_t Scheduler::next_bit(const Level& l, std::int64_t after) noexcept {
  const std::size_t start = static_cast<std::size_t>(after + 1);
  if (start >= kWheelSlots) return kWheelSlots;
  std::size_t w = start >> 6;
  std::uint64_t word = l.bitmap[w] & (~std::uint64_t{0} << (start & 63));
  for (;;) {
    if (word != 0)
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    if (++w == kBitmapWords) return kWheelSlots;
    word = l.bitmap[w];
  }
}

void Scheduler::place(const Entry& e) {
  // With nothing pending the wheel position is free to move: catch it up
  // to the clock so a schedule after an idle stretch files at the
  // shallowest level instead of cascading down from a stale rotation.
  if (entries_ == 0) cur_tick_ = now_ >> kTickShift;
  std::int64_t t = e.time >> kTickShift;
  if (t <= cur_tick_) {
    due_.insert(
        std::lower_bound(due_.begin(), due_.end(), e, std::greater<>{}), e);
    return;
  }
  // A level accepts the entry iff the deadline falls inside the level's
  // current rotation; each bucket then holds exactly one tick (level 0)
  // or one child rotation (outer levels), so scans never wrap.
  std::int64_t c = cur_tick_;
  for (int level = 0; level < kLevels; ++level) {
    if ((t >> kSlotBits) == (c >> kSlotBits)) {
      bucket_push(levels_[level], static_cast<std::size_t>(t & kSlotMask), e);
      return;
    }
    t >>= kSlotBits;
    c >>= kSlotBits;
  }
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
}

void Scheduler::collect(std::size_t idx) {
  // Only called with the run buffer empty, so the bucket's entries are
  // appended raw and sorted once. Everything collected later belongs to
  // a later tick and orders strictly after, which is what lets the
  // buffer be a sorted vector instead of a heap.
  assert(due_.empty());
  Level& l = levels_[0];
  for (std::int32_t i = l.head[idx]; i != -1;) {
    const std::int32_t next = arena_[i].next;
    const Entry e = arena_[i].e;
    node_free_.push_back(i);
    if (entry_dead(e))
      --entries_;
    else
      due_.push_back(e);
    i = next;
  }
  l.head[idx] = -1;
  clear_bit(l, idx);
  std::sort(due_.begin(), due_.end(), std::greater<>{});
}

void Scheduler::cascade(int level, std::size_t idx) {
  Level& l = levels_[level];
  // place() can only target the run buffer or a shallower level here (the
  // wheel position was just moved to this bucket's base), and it draws
  // nodes from the ones this walk frees, so the arena never grows
  // mid-cascade. Copy each entry out before recycling its node.
  for (std::int32_t i = l.head[idx]; i != -1;) {
    const std::int32_t next = arena_[i].next;
    const Entry e = arena_[i].e;
    node_free_.push_back(i);
    if (entry_dead(e))
      --entries_;
    else
      place(e);
    i = next;
  }
  l.head[idx] = -1;
  clear_bit(l, idx);
}

void Scheduler::migrate_overflow() {
  const std::int64_t rot = cur_tick_ >> (kLevels * kSlotBits);
  while (!overflow_.empty() &&
         ((overflow_.front().time >> kTickShift) >> (kLevels * kSlotBits)) ==
             rot) {
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
    const Entry e = overflow_.back();
    overflow_.pop_back();
    if (entry_dead(e)) {
      --entries_;
      continue;
    }
    place(e);
  }
}

bool Scheduler::advance(std::int64_t limit_tick) {
  if (entries_ == 0) return false;  // nothing anywhere: skip the scans
  for (;;) {
    // Next occupied level-0 bucket in the current rotation: that bucket
    // IS the next pending tick below the outer levels.
    if (const std::size_t idx = next_bit(levels_[0], cur_tick_ & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick = (cur_tick_ & ~kSlotMask) | idx;
      if (tick > limit_tick) return false;
      cur_tick_ = tick;
      collect(idx);
      if (!due_.empty()) return true;
      continue;  // the bucket held only cancelled entries
    }
    // Rotation exhausted: pull the next child rotation down from level 1,
    // then retry (its entries land in level 0 or the run buffer).
    if (const std::size_t idx =
            next_bit(levels_[1], (cur_tick_ >> kSlotBits) & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick1 = ((cur_tick_ >> kSlotBits) & ~kSlotMask) | idx;
      if ((tick1 << kSlotBits) > limit_tick) return false;
      cur_tick_ = tick1 << kSlotBits;
      cascade(1, idx);
      if (!due_.empty()) return true;
      continue;
    }
    if (const std::size_t idx =
            next_bit(levels_[2], (cur_tick_ >> (2 * kSlotBits)) & kSlotMask);
        idx < kWheelSlots) {
      const std::int64_t tick2 =
          ((cur_tick_ >> (2 * kSlotBits)) & ~kSlotMask) | idx;
      if ((tick2 << (2 * kSlotBits)) > limit_tick) return false;
      cur_tick_ = tick2 << (2 * kSlotBits);
      cascade(2, idx);
      if (!due_.empty()) return true;
      continue;
    }
    // Whole wheel empty: jump straight to the earliest far-future timer
    // and pull its level-2 rotation in.
    while (!overflow_.empty() && entry_dead(overflow_.front())) {
      std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
      overflow_.pop_back();
      --entries_;
    }
    if (overflow_.empty()) return false;
    const std::int64_t tick = overflow_.front().time >> kTickShift;
    if (tick > limit_tick) return false;
    cur_tick_ = tick;
    migrate_overflow();
    if (!due_.empty()) return true;
  }
}

std::pair<Scheduler::Slot*, EventId> Scheduler::claim_slot() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.live = true;
  ++live_count_;
  return {&s, make_id(s.gen, slot)};
}

EventId Scheduler::schedule_at(Time t, util::SmallFn fn) {
  assert(t >= now_ && "schedule_at: deadline in the past");
  if (t < now_) t = now_;  // clamp: still runs after everything already due
  auto [s, id] = claim_slot();
  s->fn = std::move(fn);
  place(Entry{t, next_seq(EventKind::kCallback), id, kNullPacket});
  ++entries_;
  ctr_scheduled_->add();
  return id;
}

EventId Scheduler::schedule_delivery_in(Duration d, Link& link,
                                        PacketHandle h) {
  assert(d >= 0 && "schedule_delivery_in: deadline in the past");
  const Time t = d < 0 ? now_ : now_ + d;
  place(Entry{
      t, next_seq(EventKind::kDelivery),
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)), h});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

EventId Scheduler::schedule_injected_delivery(Duration d, Link& link,
                                              PacketHandle h, Time orig_time,
                                              std::uint32_t orig_intra) {
  assert(d > 0 && "schedule_injected_delivery: deadline not in the future");
  assert(orig_time <= now_ &&
         "schedule_injected_delivery: origin after injection");
  const Time t = now_ + d;
  // The ordering key is the producer's insertion instant, not ours: at
  // an exact deadline tie with a local event this entry sorts by when
  // the serial run would have inserted it (local bit clear keeps the
  // key spaces disjoint).
  const std::uint64_t seq =
      pack_seq_at(order_tick(orig_time),
                  orig_intra < kIntraMax ? orig_intra : kIntraMax,
                  /*local=*/false, EventKind::kDelivery);
  place(Entry{
      t, seq,
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)), h});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

EventId Scheduler::schedule_tx_complete_in(Duration d, Link& link) {
  assert(d >= 0 && "schedule_tx_complete_in: deadline in the past");
  const Time t = d < 0 ? now_ : now_ + d;
  place(Entry{
      t, next_seq(EventKind::kTxComplete),
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&link)),
      kNullPacket});
  ++entries_;
  ++live_count_;
  ctr_scheduled_->add();
  return 0;
}

bool Scheduler::cancel(EventId id) {
  const Slot* s = slot_of(id);
  if (s == nullptr) return false;
  // Removal is lazy: the generation bump kills the entry wherever it
  // sits, and compaction sweeps the dead once they dominate.
  release(static_cast<std::uint32_t>(id));
  ctr_cancelled_->add();
  // Guard inlined: this runs on every cancel, and timer-churn workloads
  // cancel as often as they schedule.
  if (entries_ >= kCompactFloor && entries_ > 3 * live_count_)
    maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Every held entry whose generation no longer matches its slot is dead
  // (entries for executed events leave the structure immediately, so
  // "dead" == cancelled). Sweep only once they outnumber live ones 2:1.
  if (entries_ < kCompactFloor || entries_ <= 3 * live_count_) return;
  const std::size_t before = entries_;
  const auto dead = [this](const Entry& e) { return entry_dead(e); };
  std::size_t removed = 0;
  for (Level& l : levels_) {
    if (l.occupied == 0) continue;
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      std::uint64_t word = l.bitmap[w];
      while (word != 0) {
        const std::size_t idx =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        std::int32_t* link = &l.head[idx];
        while (*link != -1) {
          const std::int32_t i = *link;
          if (dead(arena_[i].e)) {
            *link = arena_[i].next;
            node_free_.push_back(i);
            ++removed;
          } else {
            link = &arena_[i].next;
          }
        }
        if (l.head[idx] == -1) clear_bit(l, idx);
      }
    }
  }
  // The in-place sweeps preserve relative order, so the sorted run
  // buffer stays sorted; the overflow heap needs re-heapifying.
  for (std::vector<Entry>* v : {&due_, &overflow_}) {
    const auto it = std::remove_if(v->begin(), v->end(), dead);
    removed += static_cast<std::size_t>(v->end() - it);
    v->erase(it, v->end());
  }
  std::make_heap(overflow_.begin(), overflow_.end(), std::greater<>{});
  entries_ -= removed;
  ctr_compactions_->add();
  entries_gauge_->set(static_cast<double>(entries_));
  if (auto* t = telemetry::tracer();
      t && t->enabled(telemetry::Category::kScheduler)) {
    t->instant(telemetry::Category::kScheduler, "sched.compact", now_,
               {telemetry::targ("before", static_cast<double>(before)),
                telemetry::targ("after", static_cast<double>(entries_))});
  }
}

template <bool kProfiled>
bool Scheduler::dispatch(const Entry& e) {
  assert(e.time >= now_);
  if (e.kind() == EventKind::kCallback) {
    Slot* s = slot_of(e.id);
    if (s == nullptr) return false;  // cancelled
    // Move the payload out and vacate the slot before dispatching so the
    // event may reschedule (and even land in the same slot).
    util::SmallFn fn = std::move(s->fn);
    release(static_cast<std::uint32_t>(e.id));
    now_ = e.time;
    ++executed_;
    run_section<kProfiled>(profile_, Prof::kCallback, fn);
    return true;
  }
  now_ = e.time;
  ++executed_;
  --live_count_;  // fast-path events never touched a slot
  if (e.kind() == EventKind::kDelivery) {
    run_section<kProfiled>(profile_, Prof::kDelivery, [&] {
      detail::link_deliver(*entry_link(e), pool_, e.packet);
    });
  } else {
    run_section<kProfiled>(profile_, Prof::kTxComplete,
                           [&] { detail::link_tx_complete(*entry_link(e)); });
  }
  return true;
}

bool Scheduler::step() {
  for (;;) {
    if (due_.empty() && !advance(kNoLimit)) return false;
    const Entry e = due_.back();
    due_.pop_back();
    --entries_;
    if (!dispatch<false>(e)) continue;
    ctr_executed_->add();
    return true;
  }
}

template <bool kProfiled>
std::uint64_t Scheduler::run_loop(Time horizon) {
  const std::uint64_t wall0 = kProfiled ? telemetry::profile_clock_ns() : 0;
  const std::int64_t limit_tick = horizon >> kTickShift;
  std::uint64_t ran = 0;
  for (;;) {
    if (due_.empty()) {
      bool more = false;
      run_section<kProfiled>(profile_, Prof::kWheelAdvance,
                             [&] { more = advance(limit_tick); });
      if (!more) break;
    }
    // The run buffer is sorted, so executing straight off the back
    // preserves (time, seq) order, and anything a callback schedules
    // mid-drain lands in order behind it (place() inserts in order).
    const Entry e = due_.back();
    if (e.time > horizon) break;
    due_.pop_back();
    --entries_;
    if (dispatch<kProfiled>(e)) ++ran;
  }
  if (now_ < horizon) now_ = horizon;
  // Telemetry is batched per run_until rather than per event: a per-event
  // indirect store is measurable on the packet fast path, and scrapes
  // only happen between run_until calls anyway.
  if (ran > 0) ctr_executed_->add(ran);
  entries_gauge_->set(static_cast<double>(entries_));
  due_gauge_->set(static_cast<double>(due_.size()));
  occupied_gauge_->set(static_cast<double>(
      levels_[0].occupied + levels_[1].occupied + levels_[2].occupied));
  if constexpr (kProfiled)
    profile_->add_wall(telemetry::profile_clock_ns() - wall0);
  return ran;
}

std::uint64_t Scheduler::run_until(Time horizon) {
  return profile_ != nullptr ? run_loop<true>(horizon)
                             : run_loop<false>(horizon);
}

}  // namespace phi::sim
