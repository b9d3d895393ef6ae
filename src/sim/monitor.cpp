#include "sim/monitor.hpp"

namespace phi::sim {

LinkMonitor::LinkMonitor(Scheduler& sched, const Link& link,
                         util::Duration interval, std::size_t window)
    : sched_(&sched), link_(link), interval_(interval), window_(window) {
  resolve_telemetry();
  last_bytes_ = link_.bytes_transmitted();
  arm();
}

void LinkMonitor::resolve_telemetry() {
  const telemetry::Labels labels{
      {"link", link_.name().empty() ? std::string("unnamed")
                                    : link_.name()}};
  auto& reg = telemetry::registry();
  util_gauge_ = &reg.gauge("sim.monitor.utilization", labels);
  occ_gauge_ = &reg.gauge("sim.monitor.occupancy", labels);
  // Utilization samples live in [0, 1]; linear-ish buckets from 1/64 up
  // resolve the whole range.
  util_hist_ = &reg.histogram("sim.monitor.utilization_sample", labels,
                              {1.0 / 64.0, 1.5, 12});
}

void LinkMonitor::rebind(Scheduler& sched) {
  if (pending_ != 0) sched_->cancel(pending_);
  pending_ = 0;
  sched_ = &sched;
  resolve_telemetry();
  arm();
}

LinkMonitor::~LinkMonitor() {
  stopped_ = true;
  if (pending_ != 0) sched_->cancel(pending_);
}

void LinkMonitor::arm() {
  pending_ = sched_->schedule_in(interval_, [this] {
    if (stopped_) return;
    sample();
    arm();
  });
}

void LinkMonitor::sample() {
  const std::uint64_t bytes = link_.bytes_transmitted();
  const double sent_bits = static_cast<double>(bytes - last_bytes_) * 8.0;
  last_bytes_ = bytes;
  const double capacity_bits = link_.rate() * util::to_seconds(interval_);
  last_util_ = capacity_bits > 0.0 ? sent_bits / capacity_bits : 0.0;
  if (last_util_ > 1.0) last_util_ = 1.0;

  const double occ = link_.queue().occupancy();

  util_window_.push_back(last_util_);
  occ_window_.push_back(occ);
  if (util_window_.size() > window_) util_window_.pop_front();
  if (occ_window_.size() > window_) occ_window_.pop_front();

  util_all_.add(last_util_);
  occ_all_.add(occ);
  ++sample_count_;

  util_gauge_->set(last_util_);
  occ_gauge_->set(occ);
  util_hist_->observe(last_util_);
  // Chrome "C" counter events render as stacked per-link tracks.
  const util::Time now = sched_->now();
  telemetry::emit({.name = "monitor.utilization",
                   .cat = telemetry::Category::kLink, .phase = 'C',
                   .t0 = now, .k0 = "value", .a0 = last_util_});
  telemetry::emit({.name = "monitor.occupancy",
                   .cat = telemetry::Category::kLink, .phase = 'C',
                   .t0 = now, .k0 = "value", .a0 = occ});
}

double LinkMonitor::recent_utilization() const noexcept {
  if (util_window_.empty()) return 0.0;
  double s = 0.0;
  for (double v : util_window_) s += v;
  return s / static_cast<double>(util_window_.size());
}

double LinkMonitor::recent_occupancy() const noexcept {
  if (occ_window_.empty()) return 0.0;
  double s = 0.0;
  for (double v : occ_window_) s += v;
  return s / static_cast<double>(occ_window_.size());
}

}  // namespace phi::sim
