// scenario.hpp — the experiment engine. A ScenarioSpec declares a whole
// experiment: which topology (Figure-1 dumbbell or multi-hop parking
// lot), which sender population (per-sender workload, flow id, reporting
// group), how long to run, and optional control-plane fault injection.
// run_scenario builds it, attaches the senders (with per-sender policies
// and optional Phi advisors), runs for the configured duration, and
// extracts the metrics the paper plots: aggregate throughput during
// on-times, bottleneck queueing delay, loss rate, utilization, and the
// P_l power objective — plus per-sender and per-path breakdowns for
// multi-bottleneck topologies. See docs/SCENARIOS.md.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "phi/churn.hpp"
#include "phi/fault_injection.hpp"
#include "phi/metrics.hpp"
#include "sim/topology.hpp"
#include "tcp/app.hpp"
#include "tcp/cc.hpp"
#include "tcp/sink.hpp"

namespace phi::core {

/// One sender in a scenario: which topology endpoint it occupies, what
/// traffic it offers, and how it is reported.
struct SenderSpec {
  std::size_t endpoint = 0;  ///< index into Topology::endpoint()
  /// Flow id on the wire; 0 = auto (1000 + position in the sender list).
  sim::FlowId flow = 0;
  /// Per-sender on/off workload; nullopt = the spec-wide default.
  std::optional<tcp::OnOffConfig> workload{};
  /// > 0: a single bulk transfer of this many segments (started at t=0)
  /// instead of the on/off cycle — the §2.1 probe-flow pattern. Bulk
  /// senders draw nothing from the scenario seed and take no advisor.
  std::int64_t bulk_segments = 0;
  /// Reporting group (>= 0); -1 = excluded from group accounting.
  int group = -1;
};

/// Intra-run parallelism plan: shard the topology across cores while
/// reproducing the serial run byte-identically (docs/PARALLELISM.md).
/// Sharded runs reject the interactive extras — setup hooks, fault
/// injection, flow tracing, and time-series probes — because those
/// observe or mutate cross-shard state mid-window; run_scenario throws
/// std::invalid_argument on such combinations rather than silently
/// changing results. Event-loop profiling stays available (one profile
/// per shard, merged in shard order).
struct ShardSpec {
  /// Requested worker count; 1 = the serial engine (default). The
  /// auto-partitioner may clamp it (and falls back to serial when no
  /// feasible cut exists).
  int shards = 1;
  /// Ignored. Cross-shard packets travel in per-window buffers that grow
  /// with the traffic, so nothing is reserved up front; the field stays
  /// only for callers that still assign it.
  std::size_t ring_capacity = 4096;
};

/// Opt-in observability for one run. All fields default to off: a
/// default-constructed TelemetrySpec adds zero work (and zero
/// allocations) to the run, and the engine's behavior — every simulated
/// event, in order — is identical either way.
struct TelemetrySpec {
  /// > 0: install an EventLog tracing 1-in-this flows (1 = every flow)
  /// for the duration of the run. The log rides out on
  /// ScenarioMetrics::capture.
  std::uint32_t trace_one_in = 0;
  /// > 0: snapshot queue depth, link utilization, and per-sender cwnd
  /// into time-series on this simulated-time cadence.
  util::Duration timeseries_dt = 0;
  /// Profile the event loop (per-event-kind time accounting).
  bool profile = false;
  /// EventLog event capacity when tracing is on.
  std::size_t span_capacity = 1 << 20;

  bool any() const noexcept {
    return trace_one_in > 0 || timeseries_dt > 0 || profile;
  }
};

/// Telemetry captured during one run — only what the TelemetrySpec
/// enabled. Held by shared_ptr on ScenarioMetrics so metrics stay cheap
/// to copy; the log keeps only traced flows (no category mask) and
/// reserves nothing unless tracing was requested.
struct RunCapture {
  RunCapture(std::uint32_t trace_one_in, std::uint64_t seed,
             std::size_t capacity)
      : log(0, trace_one_in, seed, capacity) {}
  telemetry::EventLog log;
  telemetry::LoopProfile profile;
};

/// A declarative experiment: topology variant + sender population +
/// duration/seed + optional fault plan. presets::paper_dumbbell(pairs)
/// is the Figure-1 starting point.
struct ScenarioSpec {
  sim::TopologySpec topology = sim::DumbbellConfig{};
  /// Sender population. Empty = the canonical one on/off sender per
  /// topology endpoint, all using `workload` (the paper's setup). The
  /// explicit list {.endpoint = i} for every endpoint builds exactly the
  /// same population; list it to assign reporting groups.
  std::vector<SenderSpec> senders;
  tcp::OnOffConfig workload{};  ///< default workload for senders
  util::Duration duration = util::seconds(120);
  /// Statistics are reset after this much simulated time, excluding the
  /// cold-start transient. 0 = measure everything (the paper's on/off
  /// experiments include slow starts by design).
  util::Duration warmup = 0;
  std::uint64_t seed = 1;
  /// Senders negotiate ECN (pair with DumbbellConfig::Queue::kRedEcn).
  bool ecn = false;
  /// When set, the engine offers a FaultInjector built from this config
  /// to the setup hook (LiveScenario::fault_injector) so Phi advisors
  /// can be wired through a hostile control-plane channel.
  std::optional<FaultConfig> faults;
  /// Observability plan for the run; default = everything off.
  TelemetrySpec telemetry;
  /// Intra-run sharding plan; default = serial.
  ShardSpec sharding;
  /// Open-loop flow churn; default = disabled. When enabled and
  /// `senders` is empty, the engine attaches no default static
  /// population — all traffic comes from churn sessions.
  ChurnSpec churn;

  /// Number of static senders the engine will attach (churn slots are
  /// created on top, per the churn plan).
  std::size_t sender_count() const noexcept {
    if (!senders.empty()) return senders.size();
    return churn.enabled() ? 0 : sim::endpoint_count(topology);
  }
};

/// Creates the congestion-control policy for sender `i` (the position in
/// the effective sender list). The incremental-deployment experiment
/// (Fig. 4) returns different parameters per sender.
using PolicyFactory =
    std::function<std::unique_ptr<tcp::CongestionControl>(std::size_t i)>;

/// Optionally creates a Phi advisor for sender `i` (may return nullptr).
using AdvisorFactory =
    std::function<std::unique_ptr<tcp::ConnectionAdvisor>(std::size_t i)>;

/// One reporting group's aggregate (SenderSpec::group; Fig. 4 reports
/// modified vs unmodified senders separately).
struct GroupMetrics {
  int group = 0;
  double throughput_bps = 0;  ///< group bits / group on-time
  double mean_rtt_s = 0;      ///< connection-weighted
  double retransmit_rate = 0;
  std::int64_t connections = 0;
};

/// Per-sender breakdown: everything the engine knows about one sender's
/// traffic, in sender-list order. Lets benches aggregate with their own
/// weighting (e.g. per-hop means) without re-running the simulation.
struct SenderMetrics {
  std::size_t endpoint = 0;
  sim::FlowId flow = 0;
  int group = -1;                 ///< SenderSpec::group
  double bits = 0;                ///< completed-connection bits
  double on_time_s = 0;
  std::int64_t connections = 0;   ///< completed connections
  double rtt_mean_s = 0;          ///< mean of per-connection mean RTTs
  std::int64_t rtt_count = 0;     ///< connections with RTT samples
  double rtt_min_s = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t timeouts = 0;
  double live_bits = 0;           ///< ACKed bits incl. running connections
  double srtt_s = 0;              ///< live smoothed RTT (0 if no sample)
  bool has_srtt = false;
  double throughput_bps() const noexcept {
    return on_time_s > 0 ? bits / on_time_s : 0.0;
  }
};

/// Per-path breakdown (one row per Topology path, e.g. per parking-lot
/// hop). The dumbbell has exactly one.
struct PathMetrics {
  double mean_queue_delay_s = 0;
  double loss_rate = 0;
  double utilization = 0;
  std::uint64_t bytes_transmitted = 0;
};

/// One shard's share of a sharded run's work.
struct ShardLoad {
  std::uint64_t events = 0;       ///< events its scheduler executed
  std::uint64_t boundary_in = 0;  ///< packets that crossed into it
};

struct ScenarioMetrics {
  double throughput_bps = 0;      ///< aggregate bits / aggregate on-time
  double mean_queue_delay_s = 0;  ///< bottleneck per-packet queueing delay
  double loss_rate = 0;           ///< bottleneck drops / arrivals
  double utilization = 0;         ///< mean bottleneck utilization
  double mean_rtt_s = 0;          ///< across connections
  double min_rtt_s = 0;
  std::int64_t connections = 0;
  std::uint64_t timeouts = 0;
  /// Simulator events dispatched over warmup + measurement (aggregate
  /// across shards when sharded; a sharded run executes exactly the
  /// serial event count — every delivery, tx-complete, and timer fires
  /// once, whichever shard it lands on).
  std::uint64_t events_executed = 0;
  /// Effective shard count the run used (1 = serial, possibly after an
  /// infeasible-plan fallback).
  int shards_used = 1;
  /// Packets that crossed a shard boundary (0 for serial runs).
  std::uint64_t boundary_messages = 0;
  /// Per-shard split of events_executed and boundary_messages (by
  /// destination shard), in shard order; empty for serial runs.
  std::vector<ShardLoad> per_shard;
  std::vector<GroupMetrics> groups;
  std::vector<SenderMetrics> per_sender;  ///< sender-list order
  std::vector<PathMetrics> paths;         ///< Topology path order
  /// Open-loop churn results; `churn.enabled` is false unless the spec
  /// asked for churn. Measured churn sessions also fold into the
  /// headline aggregates (connections, throughput, RTT, timeouts).
  ChurnMetrics churn;
  /// Telemetry captured during the run; null unless the spec's
  /// TelemetrySpec enabled something.
  std::shared_ptr<RunCapture> capture;

  /// The sweep objective P_l = r (1-l) / d with d = mean RTT. Using RTT
  /// (propagation + queueing) keeps the metric finite on empty queues and
  /// matches "power" as throughput per unit delay experienced.
  double power_l() const noexcept {
    return lossy_power(throughput_bps, mean_rtt_s, loss_rate);
  }
  double log_power() const noexcept {
    return core::log_power(throughput_bps, mean_rtt_s);
  }
};

/// Run one scenario. All senders use `policy(i)`; when `advisor` is
/// given, each app gets advisor(i) wired in.
ScenarioMetrics run_scenario(const ScenarioSpec& spec, PolicyFactory policy,
                             AdvisorFactory advisor = nullptr);

/// Convenience: every sender runs Cubic with the same parameters.
ScenarioMetrics run_cubic_scenario(const ScenarioSpec& spec,
                                   tcp::CubicParams params);

/// Like run_scenario but gives the caller access to the live topology
/// (monitors, context sources) during the run via a setup hook that may
/// also return advisors.
struct LiveScenario;
using SetupHook = std::function<AdvisorFactory(LiveScenario&)>;

struct LiveScenario {
  /// The live topology: scheduler(), and per path the bottleneck link
  /// (path_link(p).rate()) and its monitor (path_monitor(p)).
  sim::Topology* topology = nullptr;
  const ScenarioSpec* spec = nullptr;
  std::vector<tcp::TcpSender*> senders;
  std::vector<tcp::TcpSink*> sinks;
  /// Active churn slots' senders (slot order) and the topology endpoint
  /// each one occupies; empty when the spec has no churn.
  std::vector<tcp::TcpSender*> churn_senders;
  std::vector<std::size_t> churn_endpoints;
  /// Set by the setup hook to give churn slots per-slot advisors (e.g.
  /// PhiCubicAdvisor against a region aggregator); the engine invokes it
  /// once per active slot after the hook returns and keeps the advisors
  /// alive for the run.
  std::function<std::unique_ptr<tcp::ConnectionAdvisor>(std::size_t slot)>
      churn_advisor;
  /// Number of senders whose connection is currently active ("on").
  std::function<double()> active_count;
  /// When the spec carries a fault plan, builds (once) and returns the
  /// engine-owned FaultInjector wrapping `server`; nullptr when the spec
  /// has no faults. Valid for the whole run.
  std::function<FaultInjector*(ContextServer& server)> fault_injector;
  /// Optional: set by the setup hook; the engine invokes it after the
  /// simulation finishes but before teardown, so benches can read final
  /// state (e.g. a context server's per-path weather) while the topology
  /// and its scheduler are still alive.
  std::function<void()> on_complete;
};

ScenarioMetrics run_scenario_with_setup(const ScenarioSpec& spec,
                                        PolicyFactory policy,
                                        const SetupHook& setup);

}  // namespace phi::core
