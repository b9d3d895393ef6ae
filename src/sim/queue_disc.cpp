#include "sim/queue_disc.hpp"

#include <algorithm>
#include <cassert>

namespace phi::sim {

RedQueue::RedQueue(Config cfg) : cfg_(cfg), q_(cfg.capacity_bytes),
                                 rng_(cfg.seed) {
  assert(cfg.capacity_bytes > 0);
  assert(cfg.min_th_fraction < cfg.max_th_fraction);
  ctr_marks_ = &telemetry::registry().counter("sim.red.ecn_marks");
  ctr_early_drops_ = &telemetry::registry().counter("sim.red.early_drops");
}

double RedQueue::mark_probability() const noexcept {
  const double min_th = cfg_.min_th_fraction *
                        static_cast<double>(cfg_.capacity_bytes);
  const double max_th = cfg_.max_th_fraction *
                        static_cast<double>(cfg_.capacity_bytes);
  if (avg_ < min_th) return 0.0;
  if (avg_ < max_th) {
    return cfg_.max_p * (avg_ - min_th) / (max_th - min_th);
  }
  // Gentle RED: ramp from max_p to 1 between max_th and 2*max_th.
  const double gentle_hi = std::min(
      2.0 * max_th, static_cast<double>(cfg_.capacity_bytes));
  if (avg_ >= gentle_hi) return 1.0;
  return cfg_.max_p +
         (1.0 - cfg_.max_p) * (avg_ - max_th) / (gentle_hi - max_th);
}

bool RedQueue::enqueue(PacketPool& pool, PacketHandle h, util::Time now) {
  avg_ += cfg_.weight * (static_cast<double>(q_.bytes()) - avg_);
  const double prob = mark_probability();
  if (prob > 0.0) {
    // Floyd's count correction: spread marks instead of clustering.
    const double denom = 1.0 - prob * static_cast<double>(since_last_mark_);
    const double effective = denom > 0.0 ? prob / denom : 1.0;
    ++since_last_mark_;
    if (rng_.bernoulli(std::clamp(effective, 0.0, 1.0))) {
      since_last_mark_ = 0;
      Packet& p = pool.get(h);
      if (cfg_.ecn && p.ect) {
        // Mark in place: the pool slot is this datapath's private copy.
        p.ce = true;
        ++marks_;
        ctr_marks_->add();
        telemetry::emit({.name = "red.mark",
                         .cat = telemetry::Category::kQueue, .t0 = now,
                         .flow = p.flow, .k0 = "avg_bytes", .a0 = avg_});
        return q_.enqueue(pool, h, now);
      }
      // Early drop: account it as a drop in the underlying stats.
      ctr_early_drops_->add();
      telemetry::emit({.name = "red.early_drop",
                       .cat = telemetry::Category::kQueue, .t0 = now,
                       .flow = p.flow, .k0 = "avg_bytes", .a0 = avg_});
      return q_.enqueue_drop(p);
    }
  }
  return q_.enqueue(pool, h, now);
}

Queued RedQueue::dequeue() { return q_.dequeue(); }

}  // namespace phi::sim
