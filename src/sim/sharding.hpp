// sharding.hpp — deterministic intra-run parallelism. One scenario's
// nodes and links are partitioned into per-worker shards, each running
// its own timing-wheel Scheduler and PacketPool on a dedicated thread;
// the shards advance in conservative lookahead windows sized by the
// smallest propagation delay among the links that cross shards (the
// classic conservative-PDES bound: a packet entering a cut link in
// window k cannot arrive before window k+1 ends).
//
// Cross-shard packets travel by value through per-cut-link channels,
// stamped with their absolute arrival time and a per-source-shard
// sequence number. Each channel holds two append buffers indexed by
// window parity: the producer fills one during a window while the
// consumer drains the other, so the gang's window barrier is the only
// synchronization. At each barrier the consumer takes the window's
// messages, keeps those not yet due, sorts the due ones by (arrival,
// pushed_at, src_shard, seq) — a total order independent of thread
// timing — and re-homes each packet into its own pool via the
// scheduler's zero-allocation delivery fast path. Same-seed runs
// therefore reproduce the serial artifacts byte-identically at any
// shard count (see docs/PARALLELISM.md for the determinism contract and
// the proof sketch of the window protocol).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "exec/gang.hpp"
#include "sim/link.hpp"
#include "sim/monitor.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace phi::sim {

/// One packet crossing a shard boundary. Carried by value: the producer
/// releases its pool slot immediately and the consumer acquires a slot
/// in its own pool at injection, so handles never cross pools.
struct BoundaryMessage {
  util::Time arrival = 0;   ///< absolute delivery time at the far end
  /// Sim time the producer started the transmission — the instant a
  /// serial run would have inserted the delivery event. Primary merge
  /// key after arrival, and the ordering key the consumer hands to
  /// schedule_injected_delivery so exact-deadline ties with local
  /// events dispatch in serial order.
  util::Time pushed_at = 0;
  std::uint64_t seq = 0;         ///< per-source-shard monotone counter
  std::uint32_t src_shard = 0;   ///< tiebreak after (arrival, pushed_at)
  Link* link = nullptr;          ///< the cut link (delivery context)
  Packet pkt{};
};
static_assert(std::is_trivially_copyable_v<BoundaryMessage>,
              "boundary messages are relocated with plain copies");

/// One cut link's channel: two append buffers indexed by window
/// parity. During window i the producer (source shard) appends to
/// buffer i & 1; after barrier i the consumer (destination shard)
/// drains that buffer, and the producer writes it again only after
/// barrier i + 1, which the consumer reaches only once its drain is
/// done. The gang's CyclicBarrier therefore orders every access — no
/// lock, no atomic — and each buffer's memory follows the busiest
/// window's traffic on this link instead of a fixed capacity.
class BoundaryChannel {
 public:
  BoundaryChannel() = default;
  BoundaryChannel(const BoundaryChannel&) = delete;
  BoundaryChannel& operator=(const BoundaryChannel&) = delete;

  /// Producer thread only, while running a window of parity `parity`.
  void push(unsigned parity, const BoundaryMessage& m) {
    buf_[parity].msgs.push_back(m);
    ++pushed_;
  }

  /// Consumer thread only, after the barrier that closes a window of
  /// parity `parity`: visit that window's messages in push order, then
  /// empty the buffer (keeping its capacity) for the window after next.
  template <class Visit>
  void drain(unsigned parity, Visit&& visit) {
    std::vector<BoundaryMessage>& msgs = buf_[parity].msgs;
    for (const BoundaryMessage& m : msgs) visit(m);
    msgs.clear();
  }

  std::uint64_t pushed() const noexcept { return pushed_; }

 private:
  /// Each buffer on its own cache line: the producer appends to one
  /// while the consumer drains the other.
  struct alignas(64) Buffer {
    std::vector<BoundaryMessage> msgs;
  };
  Buffer buf_[2];
  std::uint64_t pushed_ = 0;  ///< producer-side; read after the run joins
};

/// One shard's side of the boundary exchange. Only that shard's thread
/// touches it while a run is in progress — the producer fields from
/// its cut links' pushes, the consumer fields from its drains — and the
/// alignment keeps neighbouring shards off each other's cache lines.
struct alignas(64) ShardExchange {
  /// Boundary counter shared by all of this shard's cut links, so their
  /// messages carry one transmission order — the order their delivery
  /// events would have been scheduled in serially, which is what makes
  /// the merge reproduce serial tie-breaks.
  std::uint64_t seq = 0;
  unsigned parity = 0;  ///< parity of the window this shard is running
  /// Injection ordering-tick state: intra counter for messages sharing
  /// an ordering tick, continued across drains.
  std::uint32_t inj_intra = 0;
  std::uint64_t inj_tick = 0;
  std::vector<BoundaryChannel*> inbound;  ///< channels into this shard
  std::vector<BoundaryMessage> carry;     ///< drained, due in a later window
  std::vector<BoundaryMessage> due;       ///< one drain's injections (reused)
};

/// One cut link's side of the exchange: its channel, plus whose
/// sequence counter and window parity the producer stamps with. Owned
/// by ShardedRun; the cut Link holds a pointer.
struct ShardBoundary {
  BoundaryChannel channel;
  ShardExchange* src = nullptr;  ///< the source shard's exchange state
  std::uint32_t src_shard = 0;
};

namespace detail {
/// Called by Link::start_transmission for cut links (out-of-line so
/// link.cpp needs no knowledge of channel internals).
void boundary_push(ShardBoundary& b, util::Time pushed_at,
                   util::Time arrival, Link* link, const Packet& p);
}  // namespace detail

/// A partition of one Network: node -> shard, which links are cut, and
/// the conservative lookahead window the cut implies.
struct ShardPlan {
  int shards = 1;  ///< effective count (may be clamped below the request)
  /// Smallest propagation delay among cut links; 0 when nothing is cut
  /// (disconnected components — each window runs to the horizon).
  util::Duration window = 0;
  std::vector<int> node_shard;           ///< NodeId -> shard index
  std::vector<std::uint8_t> link_cut;    ///< link index -> crosses shards
  std::size_t cut_links = 0;
};

/// Auto-partitioner. Groups links into ascending propagation-delay
/// tiers and union-finds whole tiers into components while the
/// component count stays >= `shards` — so the links that end up cut are
/// the highest-latency ones the shard count allows, maximizing the
/// lookahead window. Components (ordered by smallest NodeId) are then
/// packed contiguously into shards balanced by node count. Returns a
/// serial plan (shards == 1) when the request is infeasible: fewer than
/// `shards` nodes, or every feasible cut crosses a zero-delay link
/// (zero lookahead admits no parallelism).
ShardPlan plan_shards(Network& net, int shards);

/// Executes one partitioned run. Construction re-homes every link (and,
/// via adopt_monitor, every monitor) onto its shard's scheduler with
/// instruments resolved in per-shard registries; destruction restores
/// the serial state — links and monitors back on the network's
/// scheduler, boundaries detached, queued shard-pool handles released —
/// so the topology outlives the sharded run safely.
class ShardedRun {
 public:
  ShardedRun(Network& net, const ShardPlan& plan);
  ~ShardedRun();

  ShardedRun(const ShardedRun&) = delete;
  ShardedRun& operator=(const ShardedRun&) = delete;

  int shards() const noexcept { return plan_.shards; }
  util::Duration window() const noexcept { return plan_.window; }
  const ShardPlan& plan() const noexcept { return plan_; }

  int shard_of(NodeId n) const { return plan_.node_shard.at(n); }
  Scheduler& scheduler_of(NodeId n) {
    return *scheds_[static_cast<std::size_t>(shard_of(n))];
  }
  Scheduler& shard_scheduler(int s) {
    return *scheds_[static_cast<std::size_t>(s)];
  }
  telemetry::MetricRegistry& registry_of(int s) {
    return *regs_[static_cast<std::size_t>(s)];
  }

  /// Re-home `m` (which samples `link`) onto the link's shard, with its
  /// instruments in that shard's registry. The destructor rebinds it
  /// back to the network scheduler.
  void adopt_monitor(LinkMonitor& m, const Link& link);

  /// Advance every shard to `horizon` in lookahead windows with one
  /// barrier per window. May be called repeatedly (warmup, then the
  /// measurement window). Exceptions thrown inside a shard abort the
  /// remaining work on all shards and are rethrown here.
  void run_until(util::Time horizon);

  /// Fold the per-shard registries, in shard order, into the calling
  /// thread's current registry, plus boundary-traffic counters (totals
  /// and, labelled `shard`, each shard's events and inbound messages).
  /// Call once, after the final run_until.
  void merge_telemetry();

  /// Aggregate events executed across shards (equals the serial run's
  /// count: every delivery/tx-complete/timer fires exactly once,
  /// whichever shard it lands on).
  std::uint64_t executed_events() const;
  /// Events executed by shard `s`'s scheduler.
  std::uint64_t executed_events(int s) const;
  std::uint64_t boundary_messages() const;
  /// Messages pushed toward shard `s` across its inbound cut links.
  std::uint64_t boundary_in(int s) const;
  std::uint64_t windows_run() const noexcept { return windows_run_; }

 private:
  void drain_inbound(ShardExchange& x, Scheduler& sched, util::Time bound);

  Network& net_;
  ShardPlan plan_;
  std::vector<std::unique_ptr<telemetry::MetricRegistry>> regs_;
  std::vector<std::unique_ptr<Scheduler>> scheds_;
  std::vector<ShardExchange> xch_;  ///< per shard; cut links point in
  std::vector<std::unique_ptr<ShardBoundary>> boundaries_;  ///< per cut link
  std::vector<LinkMonitor*> monitors_;
  exec::Gang gang_;
  exec::CyclicBarrier barrier_;
  std::atomic<bool> abort_{false};
  std::uint64_t windows_run_ = 0;
};

}  // namespace phi::sim
