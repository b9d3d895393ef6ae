// link.hpp — unidirectional point-to-point link: fixed rate, fixed
// propagation delay, drop-tail FIFO buffer. A bidirectional "cable" is two
// Links. The transmit loop serializes one packet at a time, exactly like
// ns-2's DelayLink + DropTail pair.
//
// The per-packet datapath is allocation-free: send() copies the packet
// into the scheduler's PacketPool once, queues/serializes the handle, and
// the delivery/tx-complete events are scheduler fast-path kinds that store
// only {Link*, PacketHandle} (see docs/DATAPATH.md).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include <memory>

#include "sim/event.hpp"
#include "sim/packet.hpp"
#include "sim/queue_disc.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/p2_quantile.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace phi::sim {

class Node;
struct ShardBoundary;

class Link {
 public:
  /// Drop-tail convenience constructor: `buffer_bytes` bounds the queue;
  /// the packet being serialized does not count against it (it has left
  /// the queue).
  Link(Scheduler& sched, Node& dst, util::Rate rate,
       util::Duration prop_delay, std::int64_t buffer_bytes,
       std::string name = {});

  /// Full form: attach an arbitrary queueing discipline (e.g. RED+ECN).
  Link(Scheduler& sched, Node& dst, util::Rate rate,
       util::Duration prop_delay, std::unique_ptr<QueueDisc> queue,
       std::string name = {});

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Entry point from the upstream node: copy into the packet pool, then
  /// queue (or drop) and kick the transmitter.
  void send(const Packet& p);

  util::Rate rate() const noexcept { return rate_; }
  util::Duration propagation_delay() const noexcept { return prop_delay_; }
  const std::string& name() const noexcept { return name_; }
  const QueueDisc& queue() const noexcept { return *queue_; }
  QueueDisc& queue() noexcept { return *queue_; }
  Node& destination() noexcept { return dst_; }
  Scheduler& scheduler() noexcept { return *sched_; }

  /// Re-home the transmitter onto another scheduler (intra-run
  /// sharding): future events and pool handles come from `sched`, and
  /// the telemetry handles are re-resolved against the calling thread's
  /// current registry, so instrument ownership follows the shard.
  /// Precondition: no queued packets and no pending events for this
  /// link in the old scheduler that will still be dispatched.
  void rebind(Scheduler& sched);

  /// Route deliveries through a cross-shard boundary channel instead of
  /// the local scheduler (set by the sharding layer for cut links;
  /// nullptr restores direct delivery). See sim/sharding.hpp.
  void set_boundary(ShardBoundary* b) noexcept { boundary_ = b; }

  /// Release every queued packet back into the current pool (sharding
  /// teardown: queued handles must not outlive the shard's pool).
  void drop_queued() noexcept;

  /// Random per-packet extra propagation delay in [0, jitter]; non-zero
  /// jitter reorders packets (the §3.2 informed-adaptation scenario).
  void set_jitter(util::Duration jitter, std::uint64_t seed = 0x717) {
    jitter_ = jitter;
    jitter_rng_ = util::Rng(seed);
  }
  util::Duration jitter() const noexcept { return jitter_; }

  /// Failure injection: a downed link discards everything offered to it
  /// (packets already serialized/propagating still arrive). Used by the
  /// unreachability experiments and robustness tests.
  void set_up(bool up) noexcept { up_ = up; }
  bool is_up() const noexcept { return up_; }
  std::uint64_t outage_drops() const noexcept { return outage_drops_; }

  std::uint64_t bytes_transmitted() const noexcept { return bytes_tx_; }
  std::uint64_t packets_transmitted() const noexcept { return pkts_tx_; }

  /// Per-packet time spent in this link's queue (excludes serialization).
  /// Dequeue-side samples are batched; the accessor flushes them first.
  const util::RunningStats& queueing_delay() const {
    flush_stats();
    return qdelay_;
  }

  /// Streaming p99 of the per-packet queueing delay, seconds (P2
  /// estimator: O(1) space even on billion-packet runs). Estimated from a
  /// deterministic 1-in-8 subsample of dequeues — see flush_stats().
  double queueing_delay_p99_s() const {
    flush_stats();
    return qdelay_p99_.value();
  }

  /// Fraction of wall-clock the transmitter has been busy since the last
  /// reset_stats(). Serialization time is charged when transmission
  /// starts, so the not-yet-elapsed remainder of an in-flight packet is
  /// subtracted here.
  double utilization(util::Time now) const noexcept;

  void reset_stats() noexcept;

 private:
  friend void detail::link_deliver(Link& link, PacketPool& pool,
                                   PacketHandle h);
  friend void detail::link_tx_complete(Link& link);

  void start_transmission(PacketHandle h);
  /// Scheduler fast-path targets: the delivery event hands the pooled
  /// packet to the destination then releases it; the tx-complete event
  /// frees the transmitter and pulls the next packet from the queue.
  /// Deliveries take the executing scheduler's pool: for a cut link the
  /// handle was re-homed into the destination shard's pool, which is not
  /// the pool this link transmits from.
  void complete_delivery(PacketPool& pool, PacketHandle h);
  void complete_transmission();

  /// Resolve the labeled registry handles in the calling thread's
  /// current registry (construction, and again on every rebind()).
  void resolve_telemetry();

  /// Replay batched queueing-delay samples, in arrival order, into the
  /// dequeue-side sinks, and push the occupancy gauge if dirty. The mean
  /// (RunningStats) sees every sample; the P2 quantile estimators see a
  /// deterministic 1-in-kQdelaySampleStride subsample.
  void flush_stats() const;

  Scheduler* sched_;
  PacketPool* pool_;
  Node& dst_;
  util::Rate rate_;
  /// transmission_time() of a full segment and of an ACK at rate_,
  /// computed once: nearly every packet is one or the other.
  util::Duration segment_tx_;
  util::Duration ack_tx_;
  util::Duration prop_delay_;
  std::unique_ptr<QueueDisc> queue_;
  std::string name_;
  ShardBoundary* boundary_ = nullptr;
  util::Duration jitter_ = 0;
  util::Rng jitter_rng_{0x717};

  bool busy_ = false;
  bool up_ = true;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t bytes_tx_ = 0;
  std::uint64_t pkts_tx_ = 0;
  util::Duration busy_time_ = 0;
  util::Time tx_end_ = 0;  ///< when the in-flight serialization finishes
  util::Time stats_since_ = 0;

  // Dequeue-side stat sinks are fed through a small batch so the hot path
  // does one array store per packet instead of three sink updates; the
  // flush replays samples in order, so the values are bit-identical to
  // unbatched feeding.
  static constexpr std::size_t kStatsBatch = 256;
  /// Quantile-estimator subsampling stride: each P2 add costs four marker
  /// updates, so feeding them every dequeue dominated the flush.
  static constexpr std::uint32_t kQdelaySampleStride = 8;
  mutable std::array<double, kStatsBatch> qdelay_batch_;
  mutable std::size_t qdelay_batch_n_ = 0;
  mutable std::uint32_t qdelay_sample_phase_ = 0;
  mutable bool occupancy_dirty_ = false;
  mutable util::RunningStats qdelay_;
  mutable util::P2Quantile qdelay_p99_{0.99};

  // Registry handles (labeled by link name), resolved at construction.
  telemetry::Counter* ctr_pkts_;
  telemetry::Counter* ctr_bytes_;
  telemetry::Counter* ctr_enqueued_;
  telemetry::Counter* ctr_drops_;
  telemetry::Counter* ctr_outage_drops_;
  telemetry::Gauge* occupancy_gauge_;
  telemetry::Histogram* qdelay_hist_;
};

}  // namespace phi::sim
