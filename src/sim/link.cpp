#include "sim/link.hpp"

#include "sim/node.hpp"
#include "sim/sharding.hpp"
#include "util/small_fn.hpp"

namespace phi::sim {

// The fast path exists so delivery events stay inline in SmallFn-sized
// storage; if an equivalent lambda capture could not, the design contract
// of docs/DATAPATH.md is broken.
namespace {
struct DeliveryCapture {
  Link* link;
  PacketHandle packet;
};
static_assert(sizeof(DeliveryCapture) <= util::SmallFn::kInlineBytes,
              "a {Link*, PacketHandle} delivery capture must fit inline "
              "in SmallFn");
}  // namespace

namespace detail {
void link_deliver(Link& link, PacketPool& pool, PacketHandle h) {
  link.complete_delivery(pool, h);
}
void link_tx_complete(Link& link) { link.complete_transmission(); }
}  // namespace detail

Link::Link(Scheduler& sched, Node& dst, util::Rate rate,
           util::Duration prop_delay, std::int64_t buffer_bytes,
           std::string name)
    : Link(sched, dst, rate, prop_delay,
           std::make_unique<DropTailDisc>(buffer_bytes), std::move(name)) {}

Link::Link(Scheduler& sched, Node& dst, util::Rate rate,
           util::Duration prop_delay, std::unique_ptr<QueueDisc> queue,
           std::string name)
    : sched_(&sched),
      pool_(&sched.packet_pool()),
      dst_(dst),
      rate_(rate),
      prop_delay_(prop_delay),
      queue_(std::move(queue)),
      name_(std::move(name)) {
  resolve_telemetry();
}

void Link::resolve_telemetry() {
  const telemetry::Labels labels{
      {"link", name_.empty() ? std::string("unnamed") : name_}};
  auto& reg = telemetry::registry();
  ctr_pkts_ = &reg.counter("sim.link.packets_tx", labels);
  ctr_bytes_ = &reg.counter("sim.link.bytes_tx", labels);
  ctr_enqueued_ = &reg.counter("sim.link.packets_enqueued", labels);
  ctr_drops_ = &reg.counter("sim.link.packets_dropped", labels);
  ctr_outage_drops_ = &reg.counter("sim.link.outage_drops", labels);
  occupancy_gauge_ = &reg.gauge("sim.link.queue_occupancy", labels);
  qdelay_hist_ = &reg.histogram("sim.link.queueing_delay_sample_s", labels);
}

void Link::rebind(Scheduler& sched) {
  sched_ = &sched;
  pool_ = &sched.packet_pool();
  resolve_telemetry();
}

void Link::drop_queued() noexcept {
  for (;;) {
    const Queued next = queue_->dequeue();
    if (next.handle == kNullPacket) return;
    pool_->release(next.handle);
  }
}

void Link::send(const Packet& p) {
  if (!up_) {
    ++outage_drops_;
    ctr_outage_drops_->add();
    telemetry::emit({.name = "link.outage_drop",
                     .cat = telemetry::Category::kLink, .t0 = sched_->now(),
                     .flow = p.flow, .k0 = "seq",
                     .a0 = static_cast<double>(p.seq)});
    return;
  }
  const PacketHandle h = pool_->acquire(p);
  if (busy_) {
    if (queue_->enqueue(*pool_, h, sched_->now())) {
      ctr_enqueued_->add();
    } else {
      // The queue disc already accounted the drop in its own stats; the
      // registry counter and event make it visible fleet-wide.
      pool_->release(h);
      ctr_drops_->add();
      telemetry::emit({.name = "link.drop", .cat = telemetry::Category::kLink,
                       .t0 = sched_->now(), .trace = p.trace, .flow = p.flow,
                       .k0 = "seq", .a0 = static_cast<double>(p.seq),
                       .k1 = "queue_bytes",
                       .a1 = static_cast<double>(queue_->bytes())});
    }
    occupancy_dirty_ = true;
    return;
  }
  start_transmission(h);
}

void Link::start_transmission(PacketHandle h) {
  busy_ = true;
  const Packet& p = pool_->get(h);
  const util::Duration tx = util::transmission_time(p.size_bytes, rate_);
  busy_time_ += tx;
  tx_end_ = sched_->now() + tx;
  bytes_tx_ += static_cast<std::uint64_t>(p.size_bytes);
  ++pkts_tx_;
  ctr_pkts_->add();
  ctr_bytes_->add(static_cast<std::uint64_t>(p.size_bytes));
  // The packet reaches the far end after serialization + propagation
  // (plus optional jitter, which can reorder); the transmitter frees up
  // after serialization alone. Delivery is scheduled first to keep event
  // insertion order identical to the historical lambda-based path.
  const util::Duration extra =
      jitter_ > 0 ? static_cast<util::Duration>(
                        jitter_rng_.uniform() * static_cast<double>(jitter_))
                  : 0;
  // Sampled flows get a transit span covering serialization +
  // propagation (+ jitter); the full duration is known here, before the
  // delivery event even fires, so the span is emitted at schedule time.
  if (p.trace != 0) {
    telemetry::emit({.name = "link.transit",
                     .cat = telemetry::Category::kPacket, .phase = 'X',
                     .t0 = sched_->now(),
                     .t1 = sched_->now() + tx + prop_delay_ + extra,
                     .trace = p.trace, .flow = p.flow, .k0 = "seq",
                     .a0 = static_cast<double>(p.seq), .k1 = "bytes",
                     .a1 = static_cast<double>(p.size_bytes)});
  }
  if (boundary_ == nullptr) {
    sched_->schedule_delivery_in(tx + prop_delay_ + extra, *this, h);
  } else {
    // Cut link: the far end lives on another shard. Hand the packet to
    // the boundary channel by value (stamped with its absolute arrival
    // time and a per-shard sequence number for deterministic merging)
    // and release the local pool slot — the consumer re-homes the packet
    // into its own pool at injection. See sim/sharding.hpp.
    detail::boundary_push(*boundary_, sched_->now(),
                          sched_->now() + tx + prop_delay_ + extra, this, p);
    pool_->release(h);
  }
  sched_->schedule_tx_complete_in(tx, *this);
}

void Link::complete_delivery(PacketPool& pool, PacketHandle h) {
  const Packet& p = pool.get(h);
  // Routing visibility for sampled flows: one point per node arrival.
  // Untraced packets (trace == 0, i.e. everything unless a log sampled
  // the flow) pay a single never-taken branch.
  if (p.trace != 0) {
    telemetry::emit({.name = "node.deliver",
                     .cat = telemetry::Category::kPacket, .t0 = sched_->now(),
                     .trace = p.trace, .flow = p.flow, .k0 = "node",
                     .a0 = static_cast<double>(dst_.id()), .k1 = "seq",
                     .a1 = static_cast<double>(p.seq)});
  }
  dst_.deliver(p);
  pool.release(h);
}

void Link::complete_transmission() {
  busy_ = false;
  const Queued next = queue_->dequeue();
  if (next.handle == kNullPacket) {
    // Queue drained: push pending stats so gauges/accessors observed
    // between bursts reflect the idle state.
    flush_stats();
    return;
  }
  qdelay_batch_[qdelay_batch_n_++] =
      util::to_seconds(sched_->now() - next.enqueued_at);
  // Queue-residency span for sampled flows: the packet sat in this
  // link's queue from enqueue until the transmitter freed up just now.
  if (const Packet& qp = pool_->get(next.handle); qp.trace != 0) {
    telemetry::emit({.name = "queue.wait",
                     .cat = telemetry::Category::kPacket, .phase = 'X',
                     .t0 = next.enqueued_at, .t1 = sched_->now(),
                     .trace = qp.trace, .flow = qp.flow, .k0 = "seq",
                     .a0 = static_cast<double>(qp.seq), .k1 = "queue_bytes",
                     .a1 = static_cast<double>(queue_->bytes())});
  }
  occupancy_dirty_ = true;
  if (qdelay_batch_n_ == kStatsBatch) flush_stats();
  start_transmission(next.handle);
}

void Link::flush_stats() const {
  for (std::size_t i = 0; i < qdelay_batch_n_; ++i) {
    const double waited = qdelay_batch_[i];
    qdelay_.add(waited);
    // The mean sees every sample (it feeds goldens); the two streaming
    // quantile estimators get a deterministic 1-in-kQdelaySampleStride
    // subsample — each add costs four marker updates, which dominated the
    // dequeue path when fed per-packet. The phase persists across flushes
    // so the subsample is independent of batch boundaries.
    if (qdelay_sample_phase_++ % kQdelaySampleStride == 0) {
      qdelay_p99_.add(waited);
      qdelay_hist_->observe(waited);
    }
  }
  qdelay_batch_n_ = 0;
  if (occupancy_dirty_) {
    occupancy_gauge_->set(queue_->occupancy());
    occupancy_dirty_ = false;
  }
}

double Link::utilization(util::Time now) const noexcept {
  const util::Duration elapsed = now - stats_since_;
  // Zero-length window — e.g. queried at the exact instant of
  // reset_stats(), including mid-serialization when busy_time_ holds a
  // pro-rated remainder — reads as 0, never 0/0 or x/0.
  if (elapsed <= 0) return 0.0;
  util::Duration busy = busy_time_;
  // busy_time_ is charged in full when serialization starts; don't count
  // the part of an in-flight packet that hasn't happened yet.
  if (busy_ && tx_end_ > now) busy -= tx_end_ - now;
  return static_cast<double>(busy) / static_cast<double>(elapsed);
}

void Link::reset_stats() noexcept {
  flush_stats();
  bytes_tx_ = 0;
  pkts_tx_ = 0;
  const util::Time now = sched_->now();
  // Carry the remainder of an in-flight serialization into the new
  // window: the transmitter will be busy for (tx_end_ - now) of it.
  busy_time_ = (busy_ && tx_end_ > now) ? tx_end_ - now : 0;
  stats_since_ = now;
  qdelay_ = {};
  qdelay_p99_ = util::P2Quantile(0.99);
  qdelay_sample_phase_ = 0;
  queue_->reset_stats();
}

}  // namespace phi::sim
