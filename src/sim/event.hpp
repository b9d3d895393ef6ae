// event.hpp — the discrete-event scheduler at the heart of the ns-2
// stand-in. Events are callbacks ordered by (time, insertion sequence);
// the sequence number makes simultaneous events FIFO, which keeps runs
// deterministic regardless of queue internals.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/packet_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/small_fn.hpp"
#include "util/units.hpp"

namespace phi::sim {

using util::Duration;
using util::Time;

class Link;

namespace detail {
/// Out-of-line trampolines for the scheduler's per-packet fast path,
/// defined in link.cpp (the scheduler cannot see Link's definition).
/// The executing scheduler passes its own pool: a delivery handle always
/// lives in the pool of the scheduler that runs it, which under intra-run
/// sharding (docs/PARALLELISM.md) is the *destination* shard's pool, not
/// the pool the cut link's transmitter allocates from.
void link_deliver(Link& link, PacketPool& pool, PacketHandle h);
void link_tx_complete(Link& link);
}  // namespace detail

/// Opaque handle for cancelling a scheduled event. Internally
/// (generation << 32) | slot; generations start at 1 so a value of 0 is
/// never issued and can mean "no event" at call sites.
using EventId = std::uint64_t;

/// Hierarchical timing-wheel event scheduler.
///
/// Usage:
///   Scheduler s;
///   s.schedule_in(util::milliseconds(10), [&]{ ... });
///   s.run_until(util::seconds(30));
///
/// Pending events live in a timing wheel tuned to simulation timescales:
/// 1.024 us level-0 ticks and 1024 buckets per level, so the levels span
/// ~1 ms, ~1.07 s, ~18 min, ~13 days, ~36 years and the rest of the
/// 63-bit clock. Scheduling is an O(1) bucket append for every
/// representable deadline — link serialization, propagation, RTO re-arms,
/// idle timers — instead of an O(log n) heap sift. Execution drains one
/// bucket at a time into a small sorted run buffer keyed (time, insertion
/// sequence) and popped in that order, which preserves the exact
/// FIFO-for-simultaneous-events contract of the historical binary-heap
/// implementation: runs are byte-identical. See docs/DATAPATH.md.
///
/// Callbacks live in a slab of generation-tagged slots recycled through a
/// free list: scheduling is a slot reuse plus a bucket append (no
/// per-event node or hash-map allocation — captures up to
/// util::SmallFn::kInlineBytes are stored in place), cancellation is an
/// O(1) generation bump, and stale EventIds are recognized by their
/// generation rather than by membership in a map. Cancelled entries are
/// swept out of the wheel once they outnumber live ones 2:1, so
/// timer-heavy workloads (e.g. a retransmit timer re-armed on every ACK)
/// keep the wheel proportional to the number of *pending* events rather
/// than the number ever scheduled. The per-packet fast-path kinds
/// (delivery, tx-complete) carry their {Link*, PacketHandle} payload in
/// the wheel entry itself and touch no slot at all.
class Scheduler {
 public:
  Scheduler();

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t`. Deadlines must be >= now(); a
  /// past deadline is clamped to now() (debug builds assert) so it still
  /// executes after every event already due — never out of order.
  EventId schedule_at(Time t, util::SmallFn fn);

  /// Schedule `fn` after a delay relative to now(). A deadline past the
  /// end of the clock saturates at the largest Time.
  EventId schedule_in(Duration d, util::SmallFn fn) {
    constexpr Time kEnd = std::numeric_limits<Time>::max();
    return schedule_at(d > kEnd - now_ ? kEnd : now_ + d, std::move(fn));
  }

  /// Per-packet fast path: deliver pool packet `h` to `link`'s far end
  /// after `d`. Equivalent to scheduling a {&link, h} lambda, but the
  /// pair rides directly in the wheel entry — no type erasure, no slot
  /// claim/release, nothing to destroy. Such events are ordered exactly
  /// like callbacks (time, then insertion sequence) but are not
  /// cancellable (the packet handle would leak): the returned id is
  /// always 0, the "no event" value.
  EventId schedule_delivery_in(Duration d, Link& link, PacketHandle h);

  /// Per-packet fast path: `link`'s transmitter frees up after `d`.
  EventId schedule_tx_complete_in(Duration d, Link& link);

  /// Boundary injection (intra-run sharding): like schedule_delivery_in,
  /// but the entry's ordering key is built from `orig_time` — the sim
  /// time at which the producing shard started the transmission, i.e.
  /// the instant a serial run would have inserted this delivery — with
  /// `orig_intra` breaking ties among injected messages sharing an
  /// ordering tick. The injected event therefore occupies the same
  /// position in the (time, seq) dispatch order it would have held
  /// serially, which is what makes sharded runs byte-identical to
  /// serial ones even when a cross-shard arrival coincides exactly with
  /// a local event (see docs/PARALLELISM.md). `orig_time` must not be
  /// in the future; the deadline `now() + d` must be.
  EventId schedule_injected_delivery(Duration d, Link& link, PacketHandle h,
                                     Time orig_time, std::uint32_t orig_intra);

  // --- seq packing -----------------------------------------------------
  /// Ordering granularity of the insertion-time component: 128 ns. Two
  /// events inserted for the same deadline from different shards less
  /// than one ordering tick apart tie on the time component and fall
  /// back to (intra, local) — deterministic, but not guaranteed to match
  /// the serial interleave (see the determinism contract in
  /// docs/PARALLELISM.md; in practice coincident deadlines come from
  /// rate-quantized transmissions whose insertion instants differ by
  /// propagation delays, microseconds or more).
  static constexpr int kOrderTickShift = 7;
  static constexpr int kIntraBits = 14;  ///< insertions per ordering tick
  static constexpr std::uint64_t kIntraMax = (std::uint64_t{1} << kIntraBits) - 1;
  /// 64 - 14 - 1 - 2 = 47 bits of ordering tick: saturates after 2^54 ns
  /// (~208 days) of sim time, far beyond any run this simulator hosts.
  static constexpr std::uint64_t kOrderTickMax =
      (std::uint64_t{1} << (64 - kIntraBits - 3)) - 1;
  static constexpr std::uint64_t order_tick(Time t) noexcept {
    const std::uint64_t ot =
        static_cast<std::uint64_t>(t) >> kOrderTickShift;
    return ot < kOrderTickMax ? ot : kOrderTickMax;
  }

  /// Slab of in-flight packets for this run's datapath. Owned by the
  /// scheduler because it shares the packets' lifetime: a handle is
  /// acquired when a link accepts a packet and released when the
  /// delivery event fires.
  PacketPool& packet_pool() noexcept { return pool_; }

  /// Cancel a pending event. Returns false if it already ran or was
  /// cancelled before.
  bool cancel(EventId id);

  bool pending(EventId id) const noexcept { return slot_of(id) != nullptr; }

  /// Run events until the queue is empty or the next event is after
  /// `horizon`. Returns the number of events executed. The clock is left at
  /// `horizon` (or at the last event's time if the queue drained first and
  /// that was earlier).
  std::uint64_t run_until(Time horizon);

  /// Attach (or with nullptr detach) an event-loop self-profile: exact
  /// per-kind event counts plus sampled wall-clock per section (see
  /// telemetry/profile.hpp). The caller keeps ownership. Wall-clock
  /// never feeds back into simulated time, so profiling cannot change
  /// results. run_until picks the profiled or unprofiled instantiation
  /// of its drain loop once per call, so an unprofiled run pays nothing
  /// per event.
  void set_profile(telemetry::LoopProfile* p) noexcept { profile_ = p; }

  std::size_t pending_count() const noexcept { return live_count_; }
  std::uint64_t executed_count() const noexcept { return executed_; }
  /// Wheel + run-buffer entries currently held, live + cancelled but
  /// unswept. Bounded at ~3x pending_count() (plus a small floor) by
  /// compaction. (Named for the binary-heap era; kept because
  /// harnesses only care about the bound.)
  std::size_t heap_size() const noexcept { return entries_; }
  /// Slots permanently taken out of service because their 32-bit
  /// generation tag saturated (see release()); effectively zero in any
  /// real run, but observable so the wrap path can be tested.
  std::size_t retired_slot_count() const noexcept { return retired_slots_; }

 private:
  friend struct SchedulerTestAccess;  // tests poke slot generations

  /// How an entry is dispatched: a type-erased callback slot, or one of
  /// the per-packet fast-path kinds that call into a Link directly.
  enum class EventKind : std::uint8_t { kCallback, kDelivery, kTxComplete };

  /// One pending event as the wheel stores it. Callbacks reference their
  /// slot through `id`; fast-path kinds carry the Link pointer in `id`
  /// and the packet handle in `packet`, so executing them never touches
  /// the slot slab. The dispatch kind rides in the low bits of `seq`,
  /// which keeps the entry at 32 bytes — sorted-insert memmoves and
  /// collect copies are 20% smaller.
  ///
  /// The rest of `seq` encodes the insertion *chronology* rather than a
  /// plain counter: the sim time of insertion (at kOrderTickShift
  /// granularity) in the high bits and a per-tick counter below it.
  /// Within one scheduler the packed word is as unique and monotone as
  /// a counter (insertion times are nondecreasing, the intra counter
  /// orders within a tick), so serial dispatch order is unchanged. The
  /// point of the encoding is intra-run sharding: a boundary-injected
  /// delivery can be given the ordering key of the *producing* shard's
  /// insertion instant, which places it among the consumer's
  /// same-deadline events exactly where a serial run would have — see
  /// schedule_injected_delivery(). The local bit separates locally
  /// scheduled events (1) from injected ones (0) so their key spaces
  /// never collide.
  struct Entry {
    Time time;
    std::uint64_t seq;  ///< (order tick | intra | local | kind), see above
    std::uint64_t id;   ///< kCallback: EventId; fast path: Link*
    PacketHandle packet;
    EventKind kind() const noexcept {
      return static_cast<EventKind>(seq & 3);
    }
    bool operator>(const Entry& o) const noexcept {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  static constexpr std::uint64_t pack_seq_at(std::uint64_t ot,
                                             std::uint64_t intra, bool local,
                                             EventKind kind) noexcept {
    return (ot << (kIntraBits + 3)) | (intra << 3) |
           (static_cast<std::uint64_t>(local) << 2) |
           static_cast<std::uint64_t>(kind);
  }

  /// One callback slot. `gen` is bumped every time the slot is vacated
  /// (run or cancelled), which atomically invalidates every outstanding
  /// EventId minted for the previous occupant.
  struct Slot {
    util::SmallFn fn;
    std::uint32_t gen = 1;
    bool live = false;
  };

  // --- timing-wheel geometry -------------------------------------------
  static constexpr int kTickShift = 10;  ///< level-0 tick = 1.024 us
  static constexpr int kSlotBits = 10;   ///< 1024 buckets per level
  static constexpr std::size_t kWheelSlots = std::size_t{1} << kSlotBits;
  static constexpr std::int64_t kSlotMask =
      static_cast<std::int64_t>(kWheelSlots) - 1;
  /// Just enough levels for the top one to cover every representable
  /// Time: 6 levels of 1024 buckets.
  static constexpr int kLevels = (63 - kTickShift + kSlotBits - 1) / kSlotBits;
  static_assert(kTickShift + kLevels * kSlotBits >= 63,
                "the wheel levels must cover all 63 bits of Time");
  static constexpr std::size_t kBitmapWords = kWheelSlots / 64;

  /// Wheel entries live in one node arena shared by every bucket of every
  /// level; buckets are intrusive singly-linked lists (a head index plus
  /// per-node next). Order within a bucket does not matter — the run
  /// buffer re-sorts by (time, seq) — so insertion is LIFO at the head. One
  /// arena means the steady state is allocation-free even though the set
  /// of active bucket indices slides with simulated time: nodes recycle
  /// through a free list and only a new high-water mark allocates.
  struct Node {
    Entry e;
    std::int32_t next = -1;  ///< arena index of the next node, -1 ends
  };

  struct Level {
    std::array<std::int32_t, kWheelSlots> head;  ///< -1 = empty bucket
    std::array<std::uint64_t, kBitmapWords> bitmap{};
    std::size_t occupied = 0;  ///< buckets with at least one entry
  };

  static constexpr EventId make_id(std::uint32_t gen,
                                   std::uint32_t slot) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// The slot `id` refers to, or nullptr if that event already ran or was
  /// cancelled (generation mismatch).
  const Slot* slot_of(EventId id) const noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    return s.live && s.gen == static_cast<std::uint32_t>(id >> 32) ? &s
                                                                   : nullptr;
  }
  Slot* slot_of(EventId id) noexcept {
    return const_cast<Slot*>(std::as_const(*this).slot_of(id));
  }

  /// Vacate a live slot: bump the generation and recycle the index — or
  /// retire the slot outright when the 32-bit generation saturates, so a
  /// stale EventId from 2^32 occupancies ago can never alias a fresh one
  /// (generation values are minted at most once per slot, and 0 — the
  /// wrapped value — is never minted at all).
  void release(std::uint32_t slot) noexcept {
    Slot& s = slots_[slot];
    s.fn.reset();
    s.live = false;
    ++s.gen;
    if (s.gen != 0) {
      free_.push_back(slot);
    } else {
      ++retired_slots_;  // leaked by design: one slot per 2^32 recycles
    }
    --live_count_;
  }

  bool entry_dead(const Entry& e) const noexcept {
    return e.kind() == EventKind::kCallback && slot_of(e.id) == nullptr;
  }
  static Link* entry_link(const Entry& e) noexcept {
    return reinterpret_cast<Link*>(static_cast<std::uintptr_t>(e.id));
  }

  void maybe_compact();

  /// Claim a slot (recycled or fresh) and mint its EventId. The caller
  /// fills in the callback and files the wheel entry.
  std::pair<Slot*, EventId> claim_slot();

  /// Build the seq word for a locally scheduled event: insertion instant
  /// now() in the high bits, intra-tick counter below, local bit set.
  /// The packed (order-tick | intra | local) prefix is cached in
  /// seq_base_ and bumped by one intra step per call, so the hot path is
  /// an OR and a saturating add; the order-tick shift/compare only runs
  /// when the clock has moved since the last schedule (never inside a
  /// same-timestamp burst, at most once per dispatched event otherwise).
  std::uint64_t next_seq(EventKind kind) noexcept {
    if (now_ != seq_now_) refresh_seq_base();
    const std::uint64_t s = seq_base_ | static_cast<std::uint64_t>(kind);
    seq_base_ +=
        std::uint64_t{((seq_base_ >> 3) & kIntraMax) != kIntraMax} << 3;
    return s;
  }

  /// Re-anchor seq_base_ after a clock move: a new order tick resets the
  /// intra counter; within the same tick the running counter carries on.
  void refresh_seq_base() noexcept {
    seq_now_ = now_;
    const std::uint64_t ot = order_tick(now_);
    if (ot != last_order_tick_) {
      last_order_tick_ = ot;
      seq_base_ = pack_seq_at(ot, 0, /*local=*/true, EventKind::kCallback);
    }
  }

  /// File `e` where it belongs for its deadline: the run buffer when its
  /// tick is not after the wheel position, else the shallowest wheel
  /// level whose current rotation holds it. Does not touch entries_
  /// (callers account).
  void place(const Entry& e);
  std::int32_t alloc_node();
  void bucket_push(Level& l, std::size_t idx, const Entry& e);
  /// Move the contents of level-0 bucket `idx` into the run buffer,
  /// dropping cancelled callbacks, and sort it (it must be empty on
  /// entry).
  void collect(std::size_t idx);
  /// Reinsert the contents of bucket `idx` of level `level` (> 0) into
  /// the shallower levels (or into the run buffer at the exact wheel
  /// position).
  void cascade(int level, std::size_t idx);
  /// Advance the wheel to the next occupied bucket at or before
  /// `limit_tick` and fill the run buffer. Returns false when nothing
  /// remains inside the limit. Only call with an empty run buffer.
  bool advance(std::int64_t limit_tick);
  /// Execute one entry (already popped from the run buffer). Returns
  /// false if it was a cancelled callback. With kProfiled the event is
  /// counted in profile_ and, when the sampling gate fires, clocked.
  template <bool kProfiled>
  bool dispatch(const Entry& e);
  /// The drain loop behind run_until. kProfiled adds the self-profile's
  /// per-section counts and sampled clocks; the event order is the same.
  template <bool kProfiled>
  std::uint64_t run_loop(Time horizon);

  void set_bit(Level& l, std::size_t idx) noexcept {
    std::uint64_t& w = l.bitmap[idx >> 6];
    const std::uint64_t m = std::uint64_t{1} << (idx & 63);
    if ((w & m) == 0) {
      w |= m;
      ++l.occupied;
    }
  }
  void clear_bit(Level& l, std::size_t idx) noexcept {
    std::uint64_t& w = l.bitmap[idx >> 6];
    const std::uint64_t m = std::uint64_t{1} << (idx & 63);
    if ((w & m) != 0) {
      w &= ~m;
      --l.occupied;
    }
  }
  /// Smallest set index strictly greater than `after` (pass -1 to search
  /// from 0), or kWheelSlots when none.
  static std::size_t next_bit(const Level& l, std::int64_t after) noexcept;

  std::array<Level, kLevels> levels_;
  std::vector<Node> arena_;              ///< backing store for all buckets
  std::vector<std::int32_t> node_free_;  ///< recycled arena nodes, LIFO
  /// Run buffer: the entries of ticks at or before cur_tick_, sorted
  /// descending by (time, seq) so the next event is back(). It holds
  /// about one level-0 tick's worth and is refilled by advance() when
  /// empty.
  std::vector<Entry> due_;
  std::int64_t cur_tick_ = 0;  ///< level-0 tick of the last collected bucket
  std::size_t entries_ = 0;    ///< total entries held (live + cancelled)

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // vacated slot indices, LIFO
  std::size_t live_count_ = 0;
  std::size_t retired_slots_ = 0;
  PacketPool pool_;
  Time now_ = 0;
  /// seq-packing state: seq_base_ caches the next local seq word
  /// (order tick | intra | local bit, kind zeroed) for the clock value
  /// seq_now_; the intra field saturates at kIntraMax — beyond ~16k
  /// same-instant insertions ordering degrades to insertion order of
  /// equal keys, which never happens in practice. last_order_tick_
  /// detects tick changes so a clock move within one 128 ns tick keeps
  /// the running intra counter instead of resetting it.
  std::uint64_t seq_base_ = std::uint64_t{1} << 2;  // ot 0, intra 0, local
  Time seq_now_ = 0;
  std::uint64_t last_order_tick_ = 0;
  std::uint64_t executed_ = 0;
  telemetry::LoopProfile* profile_ = nullptr;

  // Telemetry handles, resolved once at construction; updates on the hot
  // path are single indirect stores (nothing at all under
  // PHI_TELEMETRY_OFF), and the executed counter is batched per
  // run_until call.
  telemetry::Counter* ctr_scheduled_;
  telemetry::Counter* ctr_executed_;
  telemetry::Counter* ctr_cancelled_;
  telemetry::Counter* ctr_compactions_;
  telemetry::Gauge* entries_gauge_;
  telemetry::Gauge* due_gauge_;
  telemetry::Gauge* occupied_gauge_;
};

}  // namespace phi::sim
