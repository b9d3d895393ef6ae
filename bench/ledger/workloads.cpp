#include "workloads.hpp"

#include <cstring>
#include <type_traits>

#include "phi/aggregation.hpp"
#include "phi/client.hpp"
#include "phi/context_server.hpp"
#include "sim/graph_topology.hpp"
#include "sim/parking_lot.hpp"

namespace phi::ledger {

namespace {

// Why each workload exists is part of the benchmark's definition: each
// one exercises a mechanism the others bypass.
const std::vector<Workload> kWorkloads = {
    {"fattree-cubic",
     "k=4 fat tree, 4000 sessions/s of open-loop churn under plain Cubic: "
     "datapath, short TCP flows and churn slots do all the work",
     Workload::Topo::kFatTree, false, 1, 30.0},
    {"fattree-phi",
     "fattree-cubic's traffic with a regional aggregator tree and a Phi "
     "advisor per churn slot: the only workload that runs the control plane",
     Workload::Topo::kFatTree, true, 1, 30.0},
    {"fattree-cubic-4shard",
     "fattree-cubic on 4 shards: every session crosses shards and Zipf "
     "skews the load; output must equal the serial reference",
     Workload::Topo::kFatTree, false, 4, 30.0},
    {"parkinglot-4shard",
     "8-hop parking lot with long on/off transfers on 4 shards: balanced "
     "20 ms cuts, no churn and no control plane",
     Workload::Topo::kParkingLot, false, 4, 300.0},
};

sim::FatTreeConfig fat_tree() {
  sim::FatTreeConfig t;
  t.k = 4;
  t.host_rate = 400.0 * util::kMbps;
  t.fabric_rate = 200.0 * util::kMbps;
  t.core_rate = 100.0 * util::kMbps;
  t.host_delay = util::microseconds(20);
  t.fabric_delay = util::microseconds(50);
  t.core_delay = util::milliseconds(1);
  t.buffer_bdp_multiple = 2.0;
  t.monitor_interval = util::milliseconds(100);
  return t;
}

sim::ParkingLotConfig parking_lot() {
  sim::ParkingLotConfig t;
  t.hops = 8;
  t.cross_per_hop = 4;
  t.long_flows = 4;
  t.hop_rate = 15.0 * util::kMbps;
  t.hop_delay = util::milliseconds(20);
  t.edge_rate = 1000.0 * util::kMbps;
  t.edge_delay = util::milliseconds(1);
  t.buffer_bdp_multiple = 5.0;
  t.monitor_interval = util::milliseconds(100);
  return t;
}

tcp::CubicParams stock_cubic() {
  tcp::CubicParams p;
  p.initial_ssthresh = 65536;
  p.window_init = 2;
  p.beta = 0.2;
  return p;
}

/// Context-tuned warm starts (the fleet_churn table, copied so edits to
/// that bench cannot move the ledger): uncongested paths skip most of
/// slow start, busy or crowded ones back off harder.
core::RecommendationTable warm_table() {
  core::RecommendationTable t;
  for (int u = 0; u < 5; ++u) {
    for (int n = 0; n < 8; ++n) {
      tcp::CubicParams p = stock_cubic();
      if (u <= 1)
        p.window_init = n <= 2 ? 24 : 12;
      else if (u == 2)
        p.window_init = 8;
      if (u >= 3 || n >= 4) p.beta = 0.4;
      t.set({u, n}, p);
    }
  }
  return t;
}

core::ContextServerConfig root_config() {
  core::ContextServerConfig c;
  c.window = util::seconds(10);
  c.ewma_alpha = 0.3;
  c.lease = util::seconds(20);
  c.dedup_capacity = 4096;
  c.bucketer.u_buckets = 5;
  return c;
}

core::AggregatorConfig aggregator_config(int region) {
  core::AggregatorConfig c;
  c.flush_interval = util::milliseconds(100);
  c.batch_max = 128;
  c.uplink_delay = util::milliseconds(5);
  c.name = "r";
  c.name += std::to_string(region);
  return c;
}

/// The Phi control plane of one run: a root server, one aggregator per
/// topology region, and (traced runs) the proxies in front of each. Owned
/// by run_once so it outlives the engine call.
struct PhiPlane {
  std::unique_ptr<core::ContextServer> root;
  std::unique_ptr<TimedService> root_proxy;
  std::vector<std::unique_ptr<core::AggregatorServer>> aggs;
  std::vector<std::unique_ptr<TimedService>> agg_proxies;
};

core::SetupHook phi_setup(PhiPlane& plane, PhiCounters& out,
                          LayerProbes* probes) {
  return [&plane, &out, probes](core::LiveScenario& live)
             -> core::AdvisorFactory {
    auto* g = dynamic_cast<sim::GraphTopology*>(live.topology);
    sim::Scheduler* sched = &live.topology->scheduler();
    plane.root = std::make_unique<core::ContextServer>(
        root_config(), [sched] { return sched->now(); });
    for (std::size_t p = 0; p < live.topology->path_count(); ++p)
      plane.root->set_path_capacity(static_cast<core::PathKey>(p),
                                    live.topology->path_link(p).rate());
    plane.root->set_recommendations(warm_table());
    core::ContextService* upstream = plane.root.get();
    if (probes != nullptr) {
      plane.root_proxy = std::make_unique<TimedService>(
          *plane.root, probes->root_lookup, probes->root_report);
      upstream = plane.root_proxy.get();
    }
    const int regions = g != nullptr ? g->regions() : 1;
    for (int r = 0; r < regions; ++r) {
      plane.aggs.push_back(std::make_unique<core::AggregatorServer>(
          *sched, *upstream, aggregator_config(r)));
      if (probes != nullptr)
        plane.agg_proxies.push_back(std::make_unique<TimedService>(
            *plane.aggs.back(), probes->agg_lookup.emplace_back(),
            probes->agg_report.emplace_back()));
    }
    live.churn_advisor = [&plane, probes, g, sched,
                          eps = live.churn_endpoints](std::size_t slot)
        -> std::unique_ptr<tcp::ConnectionAdvisor> {
      const std::size_t ep = eps[slot];
      const auto region = static_cast<std::size_t>(
          g != nullptr ? g->endpoint_region(ep) : 0);
      std::size_t path = g != nullptr ? g->endpoint_path(ep) : 0;
      if (path == sim::Topology::kAllPaths) path = 0;
      core::ContextService& service =
          probes != nullptr
              ? static_cast<core::ContextService&>(*plane.agg_proxies[region])
              : *plane.aggs[region];
      std::unique_ptr<tcp::ConnectionAdvisor> advisor =
          std::make_unique<core::PhiCubicAdvisor>(
              service, static_cast<core::PathKey>(path),
              /*sender_id=*/900'000 + slot, [sched] { return sched->now(); },
              stock_cubic());
      if (probes != nullptr)
        advisor = std::make_unique<TimedAdvisor>(std::move(advisor),
                                                 probes->client.emplace_back());
      return advisor;
    };
    live.on_complete = [&plane, &out] {
      out.root_lookups = plane.root->lookups();
      out.root_reports = plane.root->reports();
      for (const auto& a : plane.aggs) {
        out.agg_lookups += a->lookups();
        out.agg_reports += a->reports();
        out.agg_forwarded += a->forwarded();
        out.agg_flushes += a->flushes();
        out.agg_cold += a->cold_lookups();
        const util::RunningStats& st = a->staleness();
        if (st.count() != 0) {
          out.stale_n += st.count();
          out.stale_sum_s += st.sum();
          out.stale_max_s = std::max(out.stale_max_s, st.max());
        }
      }
    };
    return nullptr;  // churn slots take advisors via churn_advisor
  };
}

/// FNV-1a over the bit patterns of the simulated outputs.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) {
      h_ ^= c;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Everything a scenario CSV would carry, minus the shard-dependent
/// fields (shards_used, boundary_messages), so a sharded run must digest
/// exactly like its serial reference.
std::uint64_t digest_of(const RunResult& r) {
  const core::ScenarioMetrics& m = r.metrics;
  Digest d;
  d.add(m.throughput_bps);
  d.add(m.mean_queue_delay_s);
  d.add(m.loss_rate);
  d.add(m.utilization);
  d.add(m.mean_rtt_s);
  d.add(m.min_rtt_s);
  d.add(m.connections);
  d.add(m.timeouts);
  d.add(m.events_executed);
  for (const core::GroupMetrics& g : m.groups) {
    d.add(g.group);
    d.add(g.throughput_bps);
    d.add(g.mean_rtt_s);
    d.add(g.retransmit_rate);
    d.add(g.connections);
  }
  for (const core::SenderMetrics& s : m.per_sender) {
    d.add(s.endpoint);
    d.add(s.flow);
    d.add(s.bits);
    d.add(s.on_time_s);
    d.add(s.connections);
    d.add(s.rtt_mean_s);
    d.add(s.rtt_count);
    d.add(s.rtt_min_s);
    d.add(s.retransmits);
    d.add(s.packets_sent);
    d.add(s.timeouts);
    d.add(s.live_bits);
    d.add(s.srtt_s);
  }
  for (const core::PathMetrics& p : m.paths) {
    d.add(p.mean_queue_delay_s);
    d.add(p.loss_rate);
    d.add(p.utilization);
    d.add(p.bytes_transmitted);
  }
  const core::ChurnMetrics& c = m.churn;
  d.add(c.offered);
  d.add(c.started);
  d.add(c.completed);
  d.add(c.measured);
  d.add(c.deferred);
  d.add(c.fct_p50_s);
  d.add(c.fct_p90_s);
  d.add(c.fct_p99_s);
  d.add(c.fct_mean_s);
  d.add(c.wait_mean_s);
  d.add(c.goodput_bps);
  d.add(c.mean_rtt_s);
  d.add(c.retransmits);
  d.add(c.timeouts);
  const PhiCounters& p = r.phi;
  d.add(p.root_lookups);
  d.add(p.root_reports);
  d.add(p.agg_lookups);
  d.add(p.agg_reports);
  d.add(p.agg_forwarded);
  d.add(p.agg_flushes);
  d.add(p.agg_cold);
  d.add(p.stale_n);
  d.add(p.stale_sum_s);
  d.add(p.stale_max_s);
  return d.value();
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

core::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed,
                             int shards, double horizon_s, bool profile) {
  core::ScenarioSpec s;
  if (w.topo == Workload::Topo::kFatTree)
    s.topology = fat_tree();
  else
    s.topology = parking_lot();
  // No explicit senders: the parking lot gets one on/off sender per
  // endpoint, the fat tree only churn sessions.
  s.senders.clear();
  if (w.topo == Workload::Topo::kFatTree) {
    // Unused under churn (no default population), pinned all the same.
    s.workload.mean_on_bytes = 500e3;
    s.workload.mean_off_s = 2.0;
  } else {
    s.workload.mean_on_bytes = 400e3;
    s.workload.mean_off_s = 0.8;
  }
  s.workload.start_with_off = true;
  s.workload.max_connections = 0;
  s.duration = util::from_seconds(horizon_s);
  s.warmup = 0;
  s.seed = seed;
  s.ecn = false;
  s.faults.reset();
  s.telemetry.trace_one_in = 0;
  s.telemetry.timeseries_dt = 0;
  s.telemetry.profile = profile;
  s.telemetry.span_capacity = 1 << 20;
  s.sharding.shards = shards;
  s.sharding.ring_capacity = 4096;
  s.churn.arrivals_per_s = w.topo == Workload::Topo::kFatTree ? 4000 : 0;
  s.churn.zipf_s = 1.05;
  s.churn.pareto_alpha = 1.15;
  s.churn.min_bytes = 2.0 * 1460;
  s.churn.max_bytes = 2e6;
  s.churn.slots_per_endpoint = 32;
  s.churn.max_sessions = 0;
  return s;
}

RunResult run_once(const Workload& w, const core::ScenarioSpec& spec,
                   LayerProbes* probes) {
  RunResult r;
  r.registry = std::make_unique<telemetry::MetricRegistry>();
  telemetry::ScopedRegistry scope(*r.registry);

  PhiPlane plane;
  const std::uint64_t t0 = now_ns();
  std::uint64_t last_policy = t0;
  core::PolicyFactory policy =
      [probes, &last_policy](std::size_t) -> std::unique_ptr<tcp::CongestionControl> {
    std::unique_ptr<tcp::CongestionControl> cc =
        std::make_unique<tcp::Cubic>(stock_cubic());
    if (probes != nullptr)
      cc = std::make_unique<TimedCc>(std::move(cc),
                                     probes->cc_on_ack.emplace_back());
    last_policy = now_ns();
    return cc;
  };
  r.metrics = w.phi ? core::run_scenario_with_setup(
                          spec, policy, phi_setup(plane, r.phi, probes))
                    : core::run_scenario(spec, policy);
  const std::uint64_t t1 = now_ns();

  r.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  r.setup_s = static_cast<double>(last_policy - t0) * 1e-9;
  r.flows = spec.churn.enabled()
                ? r.metrics.churn.completed
                : static_cast<std::uint64_t>(r.metrics.connections);
  r.digest = digest_of(r);
  return r;
}

std::string check_invariants(const Workload& w, const RunResult& r) {
  const core::ScenarioMetrics& m = r.metrics;
  if (m.events_executed == 0) return "no events executed";
  if (r.flows == 0) return "no flow completed";
  if (w.topo == Workload::Topo::kFatTree) {
    const core::ChurnMetrics& c = m.churn;
    if (!c.enabled || c.offered == 0) return "churn offered no sessions";
    if (c.completed > c.started || c.started > c.offered)
      return "churn counts out of order (completed <= started <= offered)";
  }
  if (w.phi) {
    // Two messages per connection: one lookup at launch, one report at
    // completion, each through the region's aggregator.
    if (r.phi.agg_lookups != m.churn.started)
      return "aggregator lookups != churn sessions started";
    if (r.phi.agg_reports != m.churn.completed)
      return "aggregator reports != churn sessions completed";
    if (r.phi.root_reports > r.phi.agg_reports)
      return "root absorbed more reports than clients sent";
  }
  return {};
}

}  // namespace phi::ledger
