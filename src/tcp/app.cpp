#include "tcp/app.hpp"

#include <algorithm>
#include <cmath>

namespace phi::tcp {

void ConnTotals::absorb(const ConnStats& s, double on_time) {
  ++connections;
  on_time_s += on_time;
  bits += static_cast<double>(s.segments) * sim::kDefaultMss * 8.0;
  retransmits += s.retransmits;
  packets_sent += s.packets_sent;
  timeouts += s.timeouts;
  if (s.rtt_samples > 0) rtt.add(s.mean_rtt_s);
}

void ConnTotals::merge(const ConnTotals& o) {
  connections += o.connections;
  bits += o.bits;
  on_time_s += o.on_time_s;
  retransmits += o.retransmits;
  packets_sent += o.packets_sent;
  timeouts += o.timeouts;
  rtt.merge(o.rtt);
}

OnOffApp::OnOffApp(sim::Scheduler& sched, TcpSender& sender, OnOffConfig cfg,
                   std::uint64_t seed)
    : sched_(sched), sender_(sender), cfg_(cfg), rng_(seed) {}

OnOffApp::~OnOffApp() { stop(); }

void OnOffApp::start() {
  if (running_) return;
  running_ = true;
  schedule_next_connection(cfg_.start_with_off
                               ? rng_.exponential(cfg_.mean_off_s)
                               : 0.0);
}

void OnOffApp::stop() noexcept {
  running_ = false;
  if (pending_ != 0) {
    sched_.cancel(pending_);
    pending_ = 0;
  }
}

void OnOffApp::schedule_next_connection(double off_delay_s) {
  if (!running_) return;
  if (cfg_.max_connections > 0 && totals_.connections >= cfg_.max_connections)
    return;
  pending_ = sched_.schedule_in(util::from_seconds(off_delay_s), [this] {
    pending_ = 0;
    launch_connection();
  });
}

void OnOffApp::launch_connection() {
  if (!running_) return;
  const double bytes = std::max(rng_.exponential(cfg_.mean_on_bytes),
                                static_cast<double>(sim::kDefaultMss));
  const auto segments = static_cast<std::int64_t>(
      std::ceil(bytes / static_cast<double>(sim::kDefaultMss)));
  if (advisor_ != nullptr) advisor_->before_connection(sender_);
  sender_.start_connection(segments,
                           [this](const ConnStats& s) { on_connection_done(s); });
}

void OnOffApp::reset_aggregates() noexcept { totals_ = {}; }

void OnOffApp::on_connection_done(const ConnStats& s) {
  totals_.absorb(s, s.duration_s());
  if (advisor_ != nullptr) advisor_->after_connection(s, sender_);
  schedule_next_connection(rng_.exponential(cfg_.mean_off_s));
}

}  // namespace phi::tcp
