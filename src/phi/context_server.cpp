#include "phi/context_server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

namespace phi::core {

ContextServer::ContextServer(ContextServerConfig cfg,
                             std::function<util::Time()> clock)
    : cfg_(cfg), clock_(std::move(clock)) {
  auto& reg = telemetry::registry();
  ctr_lookups_ = &reg.counter("phi.context.lookups");
  ctr_reports_ = &reg.counter("phi.context.reports");
  ctr_dup_reports_ = &reg.counter("phi.context.duplicate_reports");
  ctr_unleased_reports_ = &reg.counter("phi.context.unleased_reports");
  ctr_lease_grants_ = &reg.counter("phi.context.lease_grants");
  ctr_lease_expiries_ = &reg.counter("phi.context.lease_expiries");
  ctr_gc_sweeps_ = &reg.counter("phi.context.gc_sweeps");
  ctr_snapshot_saves_ = &reg.counter("phi.context.snapshot_saves");
  ctr_snapshot_restores_ = &reg.counter("phi.context.snapshot_restores");
  g_version_ = &reg.gauge("phi.context.state_version");
  ts_version_ = &reg.timeseries("phi.context.state_version");
  ts_staleness_ = &reg.timeseries("phi.context.staleness_s");
  ts_table_installs_ = &reg.timeseries("phi.context.table_installs");
}

void ContextServer::set_recommendations(RecommendationTable table) {
  recommendations_ = std::move(table);
  ++table_installs_;
  if (telemetry::recording_series())
    ts_table_installs_->sample(util::to_seconds(now_or(last_message_at_)),
                               static_cast<double>(table_installs_));
}

void ContextServer::set_path_capacity(PathKey path, util::Rate bps) {
  PathState& st = paths_[path];
  st.capacity = bps;
  ++st.window_gen;
}

void ContextServer::set_external_utilization(PathKey path, double u,
                                             util::Time at,
                                             util::Duration ttl) {
  PathState& st = paths_[path];
  st.external_u = std::clamp(u, 0.0, 1.0);
  st.external_at = at;
  st.external_ttl = ttl;
}

util::Time ContextServer::lease_deadline(util::Time now) const {
  return cfg_.lease > 0 ? now + cfg_.lease
                        : std::numeric_limits<util::Time>::max();
}

void ContextServer::grant_lease(PathState& st, std::uint64_t sender,
                                util::Time now) {
  const util::Time deadline = lease_deadline(now);
  st.active[sender] = deadline;
  st.lease_floor = std::min(st.lease_floor, deadline);
}

void ContextServer::expire(PathState& st, util::Time now) const {
  const util::Time cutoff = now - cfg_.window;
  while (!st.window.empty() && st.window.front().end < cutoff) {
    st.window.pop_front();
    ++st.window_gen;
  }
}

std::size_t ContextServer::sweep_leases(PathState& st,
                                        util::Time now) const {
  // Only deadlines before `now` lapse, and none is before the floor.
  if (cfg_.lease <= 0 || now <= st.lease_floor) return 0;
  std::size_t expired = 0;
  util::Time floor = std::numeric_limits<util::Time>::max();
  for (auto it = st.active.begin(); it != st.active.end();) {
    if (it->second < now) {
      it = st.active.erase(it);
      ++expired;
    } else {
      floor = std::min(floor, it->second);
      ++it;
    }
  }
  st.lease_floor = floor;
  if (expired > 0) {
    // Every expiry is a full lease of silence: the smoothed sender count
    // was tracking connections that no longer exist, so snap it to the
    // surviving set instead of letting the stale history linger.
    st.senders.force(static_cast<double>(st.active.size()));
    expired_leases_ += expired;
    ctr_lease_expiries_->add(expired);
    telemetry::emit({.name = "ctx.lease_expiry",
                     .cat = telemetry::Category::kContext, .t0 = now,
                     .k0 = "expired", .a0 = static_cast<double>(expired),
                     .k1 = "surviving",
                     .a1 = static_cast<double>(st.active.size())});
  }
  return expired;
}

double ContextServer::utilization_of(const PathState& st,
                                     util::Time now) const {
  if (st.capacity <= 0.0 || st.window.empty()) return 0.0;
  // Count only the part of each transfer that overlaps the window; a
  // transfer is assumed to deliver at a uniform rate over its lifetime.
  const util::Time cutoff = now - cfg_.window;
  double bits = 0.0;
  for (const auto& d : st.window) {
    const util::Time span = std::max<util::Time>(d.end - d.start, 1);
    const util::Time from = std::max(d.start, cutoff);
    const double frac =
        static_cast<double>(d.end - from) / static_cast<double>(span);
    bits += static_cast<double>(d.bytes) * 8.0 * std::clamp(frac, 0.0, 1.0);
  }
  const double u = bits / (st.capacity * util::to_seconds(cfg_.window));
  return std::clamp(u, 0.0, 1.0);
}

bool ContextServer::already_absorbed(const Report& r) {
  if (cfg_.dedup_capacity == 0 || !r.has_report_id()) return false;
  const std::uint64_t key = r.report_key();
  if (!seen_reports_.insert(key).second) return true;
  seen_order_.push_back(key);
  if (seen_order_.size() > cfg_.dedup_capacity) {
    seen_reports_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return false;
}

LookupReply ContextServer::lookup(const LookupRequest& req) {
  ++lookups_;
  ctr_lookups_->add();
  // Staleness as the requester experiences it: how old is the newest
  // information this lookup's answer can possibly be based on? Sampled
  // before the lookup itself refreshes last_message_at_.
  if (telemetry::recording_series()) {
    ts_staleness_->sample(
        util::to_seconds(now_or(req.at)),
        last_message_at_ > 0
            ? std::max(util::to_seconds(req.at - last_message_at_), 0.0)
            : 0.0);
  }
  last_message_at_ = std::max(last_message_at_, req.at);
  PathState& st = paths_[req.path];
  const util::Time now = now_or(req.at);
  sweep_leases(st, now);
  grant_lease(st, req.sender_id, now);
  ctr_lease_grants_->add();
  st.senders.add(static_cast<double>(st.active.size()));
  telemetry::emit({.name = "ctx.lookup", .cat = telemetry::Category::kContext,
                   .t0 = now, .k0 = "path",
                   .a0 = static_cast<double>(req.path), .k1 = "active",
                   .a1 = static_cast<double>(st.active.size())});

  LookupReply reply;
  reply.context = context(req.path);
  reply.state_version = version_;
  reply.lease = cfg_.lease;
  if (auto rec = recommendations_.lookup(
          cfg_.bucketer.bucket(reply.context))) {
    reply.recommended = *rec;
    reply.has_recommendation = true;
  }
  // Causal chain, middle hop: a traced lookup gets a "ctx.recommend"
  // span on its own track. The inbound arrow (if a traced report was
  // aggregated since the last traced lookup) shows which report informed
  // this recommendation; the outbound arrow is closed by the client's
  // adoption span (reply.span_bind).
  if (req.trace != 0) {
    using telemetry::Category;
    telemetry::emit({.name = "ctx.recommend", .cat = Category::kContext,
                     .phase = 'X', .t0 = now, .t1 = now + 1000,
                     .trace = req.trace, .k0 = "version",
                     .a0 = static_cast<double>(version_),
                     .k1 = "recommended",
                     .a1 = reply.has_recommendation ? 1.0 : 0.0});
    if (last_report_bind_ != 0) {
      telemetry::emit({.name = "ctx.recommend", .cat = Category::kContext,
                       .phase = 'f', .t0 = now, .trace = req.trace,
                       .bind = std::exchange(last_report_bind_, 0)});
    }
    reply.span_bind = telemetry::next_bind();
    telemetry::emit({.name = "ctx.recommend", .cat = Category::kContext,
                     .phase = 's', .t0 = now, .trace = req.trace,
                     .bind = reply.span_bind});
  }
  return reply;
}

void ContextServer::report(const Report& r) {
  if (already_absorbed(r)) {
    // A retried report: the first copy already updated the delivery
    // window and estimates; absorbing it again would double-count.
    ++duplicate_reports_;
    ctr_dup_reports_->add();
    telemetry::emit({.name = "ctx.duplicate_report",
                     .cat = telemetry::Category::kContext,
                     .t0 = now_or(r.ended), .k0 = "path",
                     .a0 = static_cast<double>(r.path)});
    return;
  }
  ++reports_;
  ctr_reports_->add();
  ++version_;
  last_message_at_ = std::max(last_message_at_, r.ended);
  PathState& st = paths_[r.path];
  const util::Time now = now_or(r.ended);
  g_version_->set(static_cast<double>(version_));
  if (telemetry::recording_series())
    ts_version_->sample(util::to_seconds(now), static_cast<double>(version_));
  telemetry::emit({.name = "ctx.report", .cat = telemetry::Category::kContext,
                   .t0 = now, .k0 = "path", .a0 = static_cast<double>(r.path),
                   .k1 = "version", .a1 = static_cast<double>(version_)});
  // Causal chain, first server hop: the aggregation span sits on the
  // reporting flow's track, closes the client's "phi.report" arrow
  // (r.bind) and opens a fresh arrow for the next traced lookup to
  // consume — report -> aggregate -> recommend -> adopt.
  if (r.trace != 0) {
    using telemetry::Category;
    telemetry::emit({.name = "ctx.aggregate", .cat = Category::kContext,
                     .phase = 'X', .t0 = now, .t1 = now + 1000,
                     .trace = r.trace, .k0 = "bytes",
                     .a0 = static_cast<double>(r.bytes), .k1 = "version",
                     .a1 = static_cast<double>(version_)});
    if (r.bind != 0) {
      telemetry::emit({.name = "ctx.aggregate", .cat = Category::kContext,
                       .phase = 'f', .t0 = now, .trace = r.trace,
                       .bind = r.bind});
    }
    last_report_bind_ = telemetry::next_bind();
    telemetry::emit({.name = "ctx.aggregate", .cat = Category::kContext,
                     .phase = 's', .t0 = now, .trace = r.trace,
                     .bind = last_report_bind_});
  }
  sweep_leases(st, now);
  if (r.kind == Report::Kind::kFinal) {
    if (st.active.erase(r.sender_id) == 0) ctr_unleased_reports_->add();
  } else {
    // Mid-stream progress is proof of life: renew (or establish) the
    // connection's lease but keep it counted in n.
    grant_lease(st, r.sender_id, now);
  }

  st.window.push_back(Delivery{r.started, r.ended, r.bytes});
  ++st.window_gen;  // also covers the capacity fallback below
  expire(st, now);

  if (r.min_rtt_s > 0.0) {
    if (!st.has_min_rtt || r.min_rtt_s < st.min_rtt_s) {
      st.min_rtt_s = r.min_rtt_s;
      st.has_min_rtt = true;
    }
  }
  if (st.has_min_rtt && r.mean_rtt_s > 0.0) {
    st.queue_delay.add(std::max(r.mean_rtt_s - st.min_rtt_s, 0.0));
  }
  st.loss.add(r.retransmit_rate);

  // Capacity fallback: remember the fastest delivery rate ever seen.
  if (st.capacity <= 0.0 && r.duration_s() > 0.0) {
    st.capacity = std::max(
        st.capacity, static_cast<double>(r.bytes) * 8.0 / r.duration_s());
  }
}

std::size_t ContextServer::gc(util::Time now) {
  ctr_gc_sweeps_->add();
  std::size_t expired = 0;
  for (auto& [key, st] : paths_) expired += sweep_leases(st, now);
  return expired;
}

std::size_t ContextServer::active_connections(PathKey path) const {
  auto it = paths_.find(path);
  if (it == paths_.end()) return 0;
  sweep_leases(it->second, now_or(last_message_at_));
  return it->second.active.size();
}

std::string ContextServer::serialize_state() const {
  ctr_snapshot_saves_->add();
  std::ostringstream out;
  out.precision(17);
  out << "phi-context-server-state v2\n";
  out << last_message_at_ << ' ' << version_ << '\n';
  for (const auto& [key, st] : paths_) {
    out << "path " << key << ' ' << st.capacity << ' '
        << (st.has_min_rtt ? 1 : 0) << ' ' << st.min_rtt_s << ' '
        << (st.queue_delay.initialized() ? 1 : 0) << ' '
        << st.queue_delay.value() << ' ' << (st.loss.initialized() ? 1 : 0)
        << ' ' << st.loss.value() << ' '
        << (st.senders.initialized() ? 1 : 0) << ' ' << st.senders.value()
        << ' ' << st.external_u << ' ' << st.external_at << ' '
        << st.external_ttl << ' ' << st.active.size() << ' '
        << st.window.size() << '\n';
    out << "active";
    for (const auto& [id, deadline] : st.active)
      out << ' ' << id << ' ' << deadline;
    out << '\n';
    for (const auto& d : st.window)
      out << "delivery " << d.start << ' ' << d.end << ' ' << d.bytes
          << '\n';
  }
  return out.str();
}

bool ContextServer::restore_state(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) return false;
  int fmt = 0;
  if (header == "phi-context-server-state v2") {
    fmt = 2;
  } else if (header == "phi-context-server-state v1") {
    fmt = 1;
  } else {
    return false;
  }

  decltype(paths_) restored;
  util::Time last_at = 0;
  std::uint64_t version = 0;
  if (!(in >> last_at >> version)) return false;

  std::string tag;
  while (in >> tag) {
    if (tag != "path") return false;
    PathKey key = 0;
    int has_min = 0, qd_init = 0, loss_init = 0, senders_init = 0;
    double min_rtt = 0, qd = 0, loss = 0, senders = 0;
    double ext_u = -1.0;
    util::Time ext_at = 0;
    util::Duration ext_ttl = 0;
    std::size_t n_active = 0, n_window = 0;
    PathState st;
    if (!(in >> key >> st.capacity >> has_min >> min_rtt >> qd_init >>
          qd >> loss_init >> loss >> senders_init >> senders))
      return false;
    if (fmt >= 2 && !(in >> ext_u >> ext_at >> ext_ttl)) return false;
    if (!(in >> n_active >> n_window)) return false;
    // Hostile-input guards: a count can never exceed the number of bytes
    // it was serialized into (each element takes >= 2 characters), and
    // none of the floating-point fields may be NaN/Inf — a non-finite
    // value would poison every estimate derived from it.
    if (n_active > text.size() || n_window > text.size()) return false;
    if (!std::isfinite(st.capacity) || !std::isfinite(min_rtt) ||
        !std::isfinite(qd) || !std::isfinite(loss) ||
        !std::isfinite(senders) || !std::isfinite(ext_u))
      return false;
    st.has_min_rtt = has_min != 0;
    st.min_rtt_s = min_rtt;
    if (qd_init != 0) st.queue_delay.force(qd);
    if (loss_init != 0) st.loss.force(loss);
    if (senders_init != 0) st.senders.force(senders);
    st.external_u = ext_u;
    st.external_at = ext_at;
    st.external_ttl = ext_ttl;
    if (!(in >> tag) || tag != "active") return false;
    st.active.reserve(n_active);
    for (std::size_t i = 0; i < n_active; ++i) {
      std::uint64_t id = 0;
      // v1 stored bare ids; grant restored connections a fresh lease so
      // they are swept normally if their sender died with the old server.
      util::Time deadline = lease_deadline(last_at);
      if (!(in >> id)) return false;
      if (fmt >= 2 && !(in >> deadline)) return false;
      st.active[id] = deadline;
    }
    for (std::size_t i = 0; i < n_window; ++i) {
      Delivery d{};
      if (!(in >> tag) || tag != "delivery" ||
          !(in >> d.start >> d.end >> d.bytes))
        return false;
      st.window.push_back(d);
    }
    // A path listed twice is malformed: keeping either block would
    // silently drop the other.
    if (!restored.emplace(key, std::move(st)).second) return false;
  }
  paths_ = std::move(restored);
  last_message_at_ = last_at;
  version_ = version;
  ctr_snapshot_restores_->add();
  telemetry::emit({.name = "ctx.snapshot_restore",
                   .cat = telemetry::Category::kContext,
                   .t0 = last_message_at_, .k0 = "paths",
                   .a0 = static_cast<double>(paths_.size()), .k1 = "version",
                   .a1 = static_cast<double>(version_)});
  return true;
}

CongestionContext ContextServer::context(PathKey path) const {
  auto it = paths_.find(path);
  CongestionContext ctx;
  if (it == paths_.end()) return ctx;
  PathState& st = it->second;
  const util::Time now = now_or(last_message_at_);
  expire(st, now);
  sweep_leases(st, now);
  if (st.u_gen != st.window_gen || st.u_at != now) {
    st.u = utilization_of(st, now);
    st.u_gen = st.window_gen;
    st.u_at = now;
  }
  ctx.utilization = st.u;
  if (st.external_u >= 0.0 && now - st.external_at <= st.external_ttl) {
    // A shared bottleneck carries everyone's traffic: the federated view
    // can only reveal load the local estimate missed.
    ctx.utilization = std::max(ctx.utilization, st.external_u);
  }
  ctx.queue_delay_s = st.queue_delay.value();
  // Blend the open-connection count with its smoothed history: the
  // instantaneous set is exact for what the server has been told.
  ctx.competing_senders =
      std::max<double>(static_cast<double>(st.active.size()),
                       st.senders.value());
  ctx.loss_rate = st.loss.value();
  return ctx;
}

}  // namespace phi::core
