#include "phi/scenario.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "flow/tracegen.hpp"
#include "sim/sharding.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"

namespace phi::core {

namespace {

struct GroupAccum {
  tcp::ConnTotals totals;
  double rtt_weighted = 0;
  double live_bits = 0;   ///< ACKed bytes of still-running connections
  util::RunningStats srtt;
};

/// Simulated-time time-series probe: snapshots queue depth, link
/// utilization, and per-sender cwnd into registry TimeSeries on a fixed
/// cadence. All registry handles are resolved (and their buffers
/// reserved) at construction, so each tick is allocation-free; the
/// samples never feed back into the simulation.
class TimeSeriesProbe {
 public:
  TimeSeriesProbe(sim::Topology& t,
                  const std::vector<std::unique_ptr<tcp::TcpSender>>& senders,
                  util::Duration dt, util::Duration end)
      : t_(t), dt_(dt), end_(end) {
    auto& reg = telemetry::registry();
    const std::size_t expect =
        static_cast<std::size_t>(end / dt) + 2;
    for (std::size_t p = 0; p < t.path_count(); ++p) {
      const telemetry::Labels labels{{"path", std::to_string(p)}};
      queue_bytes_.push_back(&reg.timeseries("scenario.queue_bytes", labels));
      link_util_.push_back(
          &reg.timeseries("scenario.link_utilization", labels));
      queue_bytes_.back()->reserve(expect);
      link_util_.back()->reserve(expect);
    }
    for (const auto& s : senders) {
      const telemetry::Labels labels{{"flow", std::to_string(s->flow())}};
      cwnd_.push_back(&reg.timeseries("scenario.cwnd_segments", labels));
      cwnd_.back()->reserve(expect);
      senders_.push_back(s.get());
    }
  }

  void start() { arm(); }

 private:
  void tick() {
    const util::Time now = t_.scheduler().now();
    const double t_s = util::to_seconds(now);
    for (std::size_t p = 0; p < queue_bytes_.size(); ++p) {
      queue_bytes_[p]->sample(
          t_s, static_cast<double>(t_.path_link(p).queue().bytes()));
      link_util_[p]->sample(t_s, t_.path_link(p).utilization(now));
    }
    for (std::size_t i = 0; i < cwnd_.size(); ++i)
      cwnd_[i]->sample(t_s,
                       static_cast<double>(senders_[i]->cc().window()));
  }

  void arm() {
    t_.scheduler().schedule_in(dt_, [this] {
      tick();
      if (t_.scheduler().now() + dt_ <= end_) arm();
    });
  }

  sim::Topology& t_;
  util::Duration dt_;
  util::Duration end_;
  std::vector<telemetry::TimeSeries*> queue_bytes_;
  std::vector<telemetry::TimeSeries*> link_util_;
  std::vector<telemetry::TimeSeries*> cwnd_;
  std::vector<const tcp::TcpSender*> senders_;
};

/// Scoped install of a run's EventLog as the thread's log.
struct LogGuard {
  LogGuard() = default;
  void install(telemetry::EventLog* log) {
    prev_ = telemetry::set_event_log(log);
    active_ = true;
  }
  ~LogGuard() {
    if (active_) telemetry::set_event_log(prev_);
  }
  LogGuard(const LogGuard&) = delete;
  LogGuard& operator=(const LogGuard&) = delete;

 private:
  telemetry::EventLog* prev_ = nullptr;
  bool active_ = false;
};

/// Scoped switch for the per-message control-plane series (see
/// telemetry::recording_series()): on for the run exactly when the run
/// records time series.
class SeriesGuard {
 public:
  explicit SeriesGuard(bool on)
      : prev_(telemetry::set_recording_series(on)) {}
  ~SeriesGuard() { telemetry::set_recording_series(prev_); }
  SeriesGuard(const SeriesGuard&) = delete;
  SeriesGuard& operator=(const SeriesGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace

ScenarioMetrics run_scenario_with_setup(const ScenarioSpec& spec,
                                        PolicyFactory policy,
                                        const SetupHook& setup) {
  std::unique_ptr<sim::Topology> topo = sim::make_topology(spec.topology);
  sim::Topology& t = *topo;

  // Intra-run sharding: partition the freshly built topology before
  // anything schedules events. Features that observe or mutate
  // cross-shard state mid-window are rejected outright — behavior must
  // not depend on whether the partitioner found a feasible cut — and
  // the engine falls back to the serial path only when the *plan* is
  // infeasible (too few components, or zero-lookahead cuts).
  std::unique_ptr<sim::ShardedRun> srun;
  if (spec.sharding.shards > 1) {
    if (setup)
      throw std::invalid_argument(
          "sharded scenarios take no setup hook: advisors and context "
          "servers observe cross-shard state mid-window");
    if (spec.faults)
      throw std::invalid_argument(
          "sharded scenarios cannot inject control-plane faults");
    if (spec.telemetry.trace_one_in > 0)
      throw std::invalid_argument(
          "sharded scenarios cannot trace flows (the EventLog is a "
          "single-thread sink)");
    if (spec.telemetry.timeseries_dt > 0)
      throw std::invalid_argument(
          "sharded scenarios cannot record time-series probes");
    const sim::ShardPlan plan =
        sim::plan_shards(t.net(), spec.sharding.shards);
    if (plan.shards > 1) {
      srun = std::make_unique<sim::ShardedRun>(t.net(), plan);
      for (std::size_t p = 0; p < t.path_count(); ++p)
        srun->adopt_monitor(t.path_monitor(p), t.path_link(p));
    }
  }

  // Observability: the EventLog must be live before any sender is built
  // (senders sample their flow's trace tag at construction); the
  // profiler hooks straight into the scheduler's run loop. With a
  // default TelemetrySpec none of this happens and the run is untouched.
  std::shared_ptr<RunCapture> capture;
  LogGuard log_guard;
  const SeriesGuard series_guard(spec.telemetry.timeseries_dt > 0);
  std::vector<telemetry::LoopProfile> shard_profiles;
  if (spec.telemetry.any()) {
    capture = std::make_shared<RunCapture>(spec.telemetry.trace_one_in,
                                           spec.seed,
                                           spec.telemetry.span_capacity);
    if (spec.telemetry.trace_one_in > 0)
      log_guard.install(&capture->log);
    if (spec.telemetry.profile) {
      if (srun) {
        // One profile per shard (each scheduler's run loop is its own
        // thread); merged into the capture in shard order after the run.
        shard_profiles.resize(static_cast<std::size_t>(srun->shards()));
        for (int sh = 0; sh < srun->shards(); ++sh)
          srun->shard_scheduler(sh).set_profile(
              &shard_profiles[static_cast<std::size_t>(sh)]);
      } else {
        t.scheduler().set_profile(&capture->profile);
      }
    }
  }

  // Effective population: an explicit sender list, or the canonical one
  // on/off sender per endpoint (the paper's setup). A churn plan
  // replaces the default population — all default traffic then comes
  // from dynamically launched sessions — but explicit sender lists still
  // attach alongside churn (e.g. long-running background bulk flows).
  std::vector<SenderSpec> defaults;
  const std::vector<SenderSpec>* sspecs = &spec.senders;
  if (spec.senders.empty() && !spec.churn.enabled()) {
    defaults.resize(t.endpoint_count());
    for (std::size_t i = 0; i < defaults.size(); ++i)
      defaults[i].endpoint = i;
    sspecs = &defaults;
  }
  const std::size_t n = sspecs->size();

  // One sender/sink pair per static sender and per churn slot. Each
  // agent schedules on (and resolves instruments in) the shard that owns
  // its node: the sender, and the policy it is built with, on the
  // transmit side; the sink on the receive side. Serial runs use the one
  // scheduler and the current registry.
  const auto sched_of = [&](const sim::Node& node) -> sim::Scheduler& {
    return srun ? srun->scheduler_of(node.id()) : t.scheduler();
  };
  const auto attach = [&](const sim::Topology::Endpoint& ep, sim::FlowId flow,
                          std::size_t i,
                          std::vector<std::unique_ptr<tcp::TcpSender>>& tx,
                          std::vector<std::unique_ptr<tcp::TcpSink>>& rx) {
    {
      std::optional<telemetry::ScopedRegistry> scope;
      if (srun)
        scope.emplace(srun->registry_of(srun->shard_of(ep.tx->id())));
      tx.push_back(std::make_unique<tcp::TcpSender>(
          sched_of(*ep.tx), *ep.tx, ep.rx->id(), flow, policy(i)));
      if (spec.ecn) tx.back()->set_ecn(true);
    }
    std::optional<telemetry::ScopedRegistry> scope;
    if (srun) scope.emplace(srun->registry_of(srun->shard_of(ep.rx->id())));
    rx.push_back(
        std::make_unique<tcp::TcpSink>(sched_of(*ep.rx), *ep.rx, flow));
  };

  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::OnOffApp>> apps;  ///< null for bulk
  std::vector<tcp::ConnTotals> bulk(n);  ///< bulk senders' tallies
  std::vector<std::unique_ptr<tcp::ConnectionAdvisor>> advisors;
  senders.reserve(n);
  sinks.reserve(n);
  apps.reserve(n);

  util::Rng seeder(spec.seed);
  for (std::size_t i = 0; i < n; ++i) {
    const SenderSpec& ss = (*sspecs)[i];
    const sim::Topology::Endpoint ep = t.endpoint(ss.endpoint);
    attach(ep, ss.flow != 0 ? ss.flow : 1000 + i, i, senders, sinks);
    // Bulk senders start below, in population order, and draw no seed.
    apps.push_back(ss.bulk_segments > 0
                       ? nullptr
                       : std::make_unique<tcp::OnOffApp>(
                             sched_of(*ep.tx), *senders.back(),
                             ss.workload ? *ss.workload : spec.workload,
                             seeder()));
  }

  // Open-loop churn: generate the whole session trace on the main thread
  // from a derived seed stream (the seeder above never sees these draws)
  // straight into the session table, one row per session, chaining each
  // row onto its per-endpoint sender slot round-robin; then build one
  // sender/sink pair per slot that has work. Every slot's events run on
  // the scheduler owning its transmit node, and results land in the
  // slot's own rows, so sharded churn stays deterministic and race-free.
  ChurnSessions churn_sessions;  // before the slots, which point into it
  std::vector<std::unique_ptr<ChurnSlot>> churn_slots;
  std::vector<std::unique_ptr<tcp::TcpSender>> churn_senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> churn_sinks;
  std::vector<std::size_t> churn_slot_endpoint;
  std::vector<std::unique_ptr<tcp::ConnectionAdvisor>> churn_advisors;
  if (spec.churn.enabled()) {
    flow::SessionConfig scfg;
    scfg.arrivals_per_s = spec.churn.arrivals_per_s;
    scfg.horizon_s = util::to_seconds(spec.warmup + spec.duration);
    scfg.ranks = t.endpoint_count();
    scfg.zipf_s = spec.churn.zipf_s;
    scfg.pareto_alpha = spec.churn.pareto_alpha;
    scfg.min_bytes = spec.churn.min_bytes;
    scfg.max_bytes = spec.churn.max_bytes;
    scfg.max_sessions = spec.churn.max_sessions;
    scfg.seed = util::derive_seed(spec.seed, kChurnStream);
    churn_sessions.reserve(scfg);
    const std::size_t eps = t.endpoint_count();
    const std::size_t spe =
        std::max<std::size_t>(1, spec.churn.slots_per_endpoint);
    std::vector<std::size_t> rr(eps, 0);
    // Each slot's first and last row; kEnd where the trace leaves it idle.
    std::vector<std::uint32_t> first(eps * spe, ChurnSessions::kEnd);
    std::vector<std::uint32_t> last(eps * spe, ChurnSessions::kEnd);
    flow::for_each_session(scfg, [&](const flow::Session& s) {
      const std::size_t ep = s.rank % eps;
      const std::size_t slot = ep * spe + (rr[ep]++ % spe);
      last[slot] = churn_sessions.append(s, last[slot]);
      if (first[slot] == ChurnSessions::kEnd) first[slot] = last[slot];
    });
    for (std::size_t slot = 0; slot < first.size(); ++slot) {
      if (first[slot] == ChurnSessions::kEnd) continue;
      churn_slots.push_back(
          std::make_unique<ChurnSlot>(churn_sessions, first[slot]));
      churn_slot_endpoint.push_back(slot / spe);
    }
    for (std::size_t k = 0; k < churn_slots.size(); ++k) {
      const sim::Topology::Endpoint ep = t.endpoint(churn_slot_endpoint[k]);
      attach(ep, kChurnFlowBase + k, n + k, churn_senders, churn_sinks);
      churn_slots[k]->bind(sched_of(*ep.tx), *churn_senders.back(),
                           spec.warmup);
    }
  }

  std::unique_ptr<TimeSeriesProbe> probe;
  if (capture && spec.telemetry.timeseries_dt > 0) {
    probe = std::make_unique<TimeSeriesProbe>(t, senders,
                                              spec.telemetry.timeseries_dt,
                                              spec.warmup + spec.duration);
    probe->start();
  }

  LiveScenario live;
  live.topology = &t;
  live.spec = &spec;
  for (auto& s : senders) live.senders.push_back(s.get());
  for (auto& s : sinks) live.sinks.push_back(s.get());
  for (auto& s : churn_senders) live.churn_senders.push_back(s.get());
  live.churn_endpoints = churn_slot_endpoint;
  live.active_count = [&senders] {
    double c = 0;
    for (const auto& s : senders)
      if (s->busy()) ++c;
    return c;
  };
  std::unique_ptr<FaultInjector> injector;
  if (spec.faults) {
    live.fault_injector = [&t, &injector,
                           &spec](ContextServer& server) -> FaultInjector* {
      if (!injector)
        injector = std::make_unique<FaultInjector>(t.scheduler(), server,
                                                   *spec.faults);
      return injector.get();
    };
  } else {
    // Always callable, per the LiveScenario contract: no fault plan
    // simply means no injector to hand out.
    live.fault_injector = [](ContextServer&) -> FaultInjector* {
      return nullptr;
    };
  }

  if (setup) {
    AdvisorFactory af = setup(live);
    if (af) {
      for (std::size_t i = 0; i < n; ++i) {
        advisors.push_back(af(i));
        if (advisors.back() && apps[i])
          apps[i]->set_advisor(advisors.back().get());
      }
    }
    if (live.churn_advisor) {
      churn_advisors.reserve(churn_slots.size());
      for (std::size_t slot = 0; slot < churn_slots.size(); ++slot) {
        churn_advisors.push_back(live.churn_advisor(slot));
        if (churn_advisors.back())
          churn_slots[slot]->set_advisor(churn_advisors.back().get());
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (apps[i]) {
      apps[i]->start();
    } else {
      tcp::ConnTotals* tot = &bulk[i];
      senders[i]->start_connection(
          (*sspecs)[i].bulk_segments,
          [tot](const tcp::ConnStats& s) { tot->absorb(s, s.duration_s()); });
    }
  }
  for (auto& cs : churn_slots) cs->start();

  const auto run_to = [&](util::Time h) {
    if (srun) {
      srun->run_until(h);
    } else {
      t.net().run_until(h);
    }
  };

  std::vector<std::int64_t> acked_at_warmup(n, 0);
  if (spec.warmup > 0) {
    run_to(spec.warmup);
    for (std::size_t p = 0; p < t.path_count(); ++p) {
      t.path_link(p).reset_stats();
      t.path_monitor(p).reset_series();
    }
    for (auto& a : apps)
      if (a) a->reset_aggregates();
    for (auto& b : bulk) b = {};
    for (std::size_t i = 0; i < n; ++i)
      acked_at_warmup[i] = senders[i]->lifetime_acked_segments();
  }
  run_to(spec.warmup + spec.duration);

  if (srun) {
    // Fold shard registries (and boundary-traffic counters) into the
    // caller's registry in shard order, so parallel-rep telemetry
    // merging stays deterministic end to end.
    srun->merge_telemetry();
  }

  const double dur_s = util::to_seconds(spec.duration);
  ScenarioMetrics m;
  m.events_executed =
      srun ? srun->executed_events() : t.scheduler().executed_count();
  m.shards_used = srun ? srun->shards() : 1;
  m.boundary_messages = srun ? srun->boundary_messages() : 0;
  if (srun) {
    for (int sh = 0; sh < srun->shards(); ++sh)
      m.per_shard.push_back(
          {srun->executed_events(sh), srun->boundary_in(sh)});
  }
  tcp::ConnTotals all;  ///< static senders, then measured churn sessions
  std::map<int, GroupAccum> gacc;
  m.per_sender.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const tcp::ConnTotals& a = apps[i] ? apps[i]->totals() : bulk[i];
    const tcp::TcpSender& sender = *senders[i];
    all.merge(a);

    SenderMetrics sm;
    sm.endpoint = (*sspecs)[i].endpoint;
    sm.flow = sender.flow();
    sm.group = (*sspecs)[i].group;
    sm.bits = a.bits;
    sm.on_time_s = a.on_time_s;
    sm.connections = a.connections;
    sm.rtt_mean_s = a.rtt.mean();
    sm.rtt_count = static_cast<std::int64_t>(a.rtt.count());
    sm.rtt_min_s = a.rtt.min();
    sm.retransmits = a.retransmits;
    sm.packets_sent = a.packets_sent;
    sm.timeouts = a.timeouts;
    sm.live_bits = static_cast<double>(sender.lifetime_acked_segments() -
                                       acked_at_warmup[i]) *
                   sim::kDefaultMss * 8.0;
    sm.has_srtt = sender.rtt().has_sample();
    sm.srtt_s = sm.has_srtt ? util::to_seconds(sender.rtt().srtt()) : 0.0;
    m.per_sender.push_back(sm);

    if (sm.group >= 0) {
      GroupAccum& g = gacc[sm.group];
      g.totals.merge(a);
      g.rtt_weighted += a.rtt.mean() * static_cast<double>(a.rtt.count());
      g.live_bits += sm.live_bits;
      if (sm.has_srtt) g.srtt.add(sm.srtt_s);
    }
  }

  // Fold measured churn sessions into the headline aggregates: each
  // completed session counts as one connection whose "on time" is its
  // flow-completion time (arrival to last ACK, slot wait included).
  if (spec.churn.enabled()) {
    m.churn = aggregate_churn(churn_slots, churn_sessions, spec.warmup,
                              dur_s);
    for (const auto& cs : churn_slots) all.merge(cs->measured());
  }
  m.throughput_bps = all.throughput_bps();
  m.connections = all.connections;
  m.timeouts = all.timeouts;

  const std::size_t paths = t.path_count();
  double qd = 0, loss = 0, util_sum = 0;
  std::uint64_t link_bytes = 0;
  m.paths.reserve(paths);
  for (std::size_t p = 0; p < paths; ++p) {
    PathMetrics pm;
    pm.mean_queue_delay_s = t.path_link(p).queueing_delay().mean();
    pm.loss_rate = t.path_monitor(p).loss_rate();
    pm.utilization = t.path_monitor(p).utilization_series().mean();
    pm.bytes_transmitted = t.path_link(p).bytes_transmitted();
    qd += pm.mean_queue_delay_s;
    loss += pm.loss_rate;
    util_sum += pm.utilization;
    link_bytes += pm.bytes_transmitted;
    m.paths.push_back(pm);
  }
  // Scalar link metrics are the mean across paths (exactly the single
  // bottleneck's values on the dumbbell).
  m.mean_queue_delay_s = qd / static_cast<double>(paths);
  m.loss_rate = loss / static_cast<double>(paths);
  m.utilization = util_sum / static_cast<double>(paths);

  m.mean_rtt_s = all.rtt.mean();
  m.min_rtt_s = all.rtt.min();
  if (m.connections == 0) {
    // Long-running flows never complete (Fig. 2c): fall back to link
    // counters for goodput and to the live RTT estimators for delay.
    m.throughput_bps =
        dur_s > 0 ? static_cast<double>(link_bytes) * 8.0 / dur_s : 0.0;
    util::RunningStats srtt;
    for (const auto& s : senders)
      if (s->rtt().has_sample())
        srtt.add(util::to_seconds(s->rtt().srtt()));
    m.mean_rtt_s = srtt.mean();
  }
  for (const auto& [gid, g] : gacc) {
    GroupMetrics gm;
    gm.group = gid;
    const std::int64_t conns = g.totals.connections;
    gm.throughput_bps = g.totals.throughput_bps();
    gm.mean_rtt_s =
        conns > 0 ? g.rtt_weighted / static_cast<double>(conns) : 0.0;
    if (conns == 0) {
      // Long-running flows: goodput from live ACK progress, delay from
      // the live RTT estimators. A group with no traffic at all (or a
      // zero-length measurement window) reads as an all-zero row.
      gm.throughput_bps = dur_s > 0 ? g.live_bits / dur_s : 0.0;
      gm.mean_rtt_s = g.srtt.mean();
    }
    gm.retransmit_rate =
        g.totals.packets_sent > 0
            ? static_cast<double>(g.totals.retransmits) /
                  static_cast<double>(g.totals.packets_sent)
            : 0.0;
    gm.connections = conns;
    m.groups.push_back(gm);
  }
  if (live.on_complete) live.on_complete();
  if (capture && spec.telemetry.profile) {
    if (srun) {
      for (int sh = 0; sh < srun->shards(); ++sh)
        srun->shard_scheduler(sh).set_profile(nullptr);
      for (const auto& sp : shard_profiles) capture->profile.merge(sp);
    } else {
      t.scheduler().set_profile(nullptr);
    }
  }
  m.capture = std::move(capture);
  return m;
}

ScenarioMetrics run_scenario(const ScenarioSpec& spec, PolicyFactory policy,
                             AdvisorFactory advisor) {
  SetupHook hook;
  if (advisor) {
    hook = [&advisor](LiveScenario&) { return advisor; };
  }
  return run_scenario_with_setup(spec, std::move(policy), hook);
}

ScenarioMetrics run_cubic_scenario(const ScenarioSpec& spec,
                                   tcp::CubicParams params) {
  return run_scenario(spec, [params](std::size_t) {
    return std::make_unique<tcp::Cubic>(params);
  });
}

}  // namespace phi::core
