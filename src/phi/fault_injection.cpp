#include "phi/fault_injection.hpp"

#include <algorithm>

#include "tcp/sender.hpp"

namespace phi::core {

FaultInjector::FaultInjector(sim::Scheduler& sched, ContextServer& server,
                             FaultConfig cfg)
    : sched_(sched), server_(server), cfg_(cfg), rng_(cfg.seed) {
  auto& reg = telemetry::registry();
  ctr_lookups_dropped_ = &reg.counter("phi.fault.lookups_dropped");
  ctr_reports_dropped_ = &reg.counter("phi.fault.reports_dropped");
  ctr_reports_duplicated_ = &reg.counter("phi.fault.reports_duplicated");
  ctr_reports_delayed_ = &reg.counter("phi.fault.reports_delayed");
  ctr_reports_reordered_ = &reg.counter("phi.fault.reports_reordered");
  ctr_crashes_ = &reg.counter("phi.fault.crashes");
}

void FaultInjector::trace_fault(const char* name) const {
  // Every fired fault lands in the flight recorder; arming it on kFault
  // turns any injected fault into an automatic ring-buffer dump.
  telemetry::emit({.name = name, .cat = telemetry::Category::kFault,
                   .t0 = sched_.now()});
}

std::optional<LookupReply> FaultInjector::lookup(const LookupRequest& req) {
  if (rng_.bernoulli(cfg_.drop_lookup)) {
    ++lookups_dropped_;
    ctr_lookups_dropped_->add();
    trace_fault("fault.lookup_drop");
    return std::nullopt;
  }
  return server_.lookup(req);
}

void FaultInjector::forward(const Report& r) {
  if (rng_.bernoulli(cfg_.delay_report)) {
    ++reports_delayed_;
    ctr_reports_delayed_->add();
    trace_fault("fault.report_delay");
    const double span = util::to_seconds(cfg_.delay_max - cfg_.delay_min);
    const util::Duration d =
        cfg_.delay_min +
        util::from_seconds(span > 0 ? rng_.uniform(0.0, span) : 0.0);
    sched_.schedule_in(std::max<util::Duration>(d, 0),
                       [this, r] { server_.report(r); });
    return;
  }
  server_.report(r);
}

void FaultInjector::report(const Report& r) {
  if (rng_.bernoulli(cfg_.drop_report)) {
    ++reports_dropped_;
    ctr_reports_dropped_->add();
    trace_fault("fault.report_drop");
    return;
  }
  const bool dup = rng_.bernoulli(cfg_.duplicate_report);
  if (rng_.bernoulli(cfg_.reorder_report) && !held_) {
    ++reports_reordered_;
    ctr_reports_reordered_->add();
    trace_fault("fault.report_reorder");
    held_ = r;
  } else {
    forward(r);
    if (held_) {
      forward(*held_);
      held_.reset();
    }
  }
  if (dup) {
    // The retry takes an independent path: it may be delayed differently.
    ++reports_duplicated_;
    ctr_reports_duplicated_->add();
    trace_fault("fault.report_duplicate");
    forward(r);
  }
}

bool FaultInjector::crash_connection() {
  // Consume the RNG regardless of the time gate so runs that differ only
  // in crash_until see the same fault schedule up to the cutoff.
  const bool crash = rng_.bernoulli(cfg_.crash);
  if (!crash || sched_.now() >= cfg_.crash_until) return false;
  ++crashes_;
  ctr_crashes_->add();
  trace_fault("fault.crash");
  return true;
}

void FaultInjector::flush() {
  if (held_) {
    forward(*held_);
    held_.reset();
  }
}

FaultyPhiAdvisor::FaultyPhiAdvisor(FaultInjector& injector, PathKey path,
                                   std::uint64_t sender_id,
                                   tcp::CubicParams fallback)
    : injector_(injector), path_(path), sender_id_(sender_id),
      fallback_(fallback) {}

void FaultyPhiAdvisor::before_connection(tcp::TcpSender& sender) {
  ++epoch_;
  current_crashed_ = injector_.crash_connection();
  if (current_crashed_) ++crashed_;
  tcp::CubicParams params = fallback_;
  const auto reply = injector_.lookup(LookupRequest{
      path_, connection_id(), injector_.scheduler().now(), epoch_});
  if (reply && reply->has_recommendation) params = reply->recommended;
  sender.set_cc(std::make_unique<tcp::Cubic>(params));
}

void FaultyPhiAdvisor::after_connection(const tcp::ConnStats& s,
                                        const tcp::TcpSender&) {
  // A crashed sender took its report down with it; the server only finds
  // out when the connection's lease lapses.
  if (current_crashed_) return;
  Report r;
  r.path = path_;
  r.sender_id = connection_id();
  r.epoch = epoch_;
  r.started = s.start;
  r.ended = s.end;
  r.bytes = s.segments * sim::kDefaultMss;
  r.min_rtt_s = s.min_rtt_s;
  r.mean_rtt_s = s.mean_rtt_s;
  r.retransmit_rate = s.retransmit_rate();
  injector_.report(r);
}

}  // namespace phi::core
