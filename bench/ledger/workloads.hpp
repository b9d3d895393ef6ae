// workloads.hpp — the ledger's four pinned workloads and the single-run
// runner. Every ScenarioSpec field is written out explicitly (no preset
// lookups, no reliance on struct defaults), so retuning a preset or a
// default elsewhere in the repository cannot change what is measured.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phi/scenario.hpp"
#include "probes.hpp"
#include "telemetry/telemetry.hpp"

namespace phi::ledger {

struct Workload {
  enum class Topo { kFatTree, kParkingLot };

  const char* name;
  const char* why;
  Topo topo;
  bool phi;           ///< aggregation tree + a PhiCubicAdvisor per churn slot
  int shards;         ///< timed repetitions; the reference run is serial
  double horizon_s;   ///< pinned simulated horizon
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The workload's pinned spec at `seed`, run on `shards` shards.
core::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed,
                             int shards, double horizon_s, bool profile);

/// Proxy slots of one traced run (see probes.hpp).
struct LayerProbes {
  StatsSlots cc_on_ack;  ///< one per sender / churn slot
  StatsSlots client;     ///< one per PhiCubicAdvisor
  StatsSlots agg_lookup, agg_report;  ///< one per aggregator
  CallStats root_lookup, root_report;
};

/// Control-plane counters, harvested while the Phi run is still alive.
struct PhiCounters {
  std::uint64_t root_lookups = 0;
  std::uint64_t root_reports = 0;
  std::uint64_t agg_lookups = 0;
  std::uint64_t agg_reports = 0;
  std::uint64_t agg_forwarded = 0;
  std::uint64_t agg_flushes = 0;
  std::uint64_t agg_cold = 0;
  std::uint64_t stale_n = 0;
  double stale_sum_s = 0;
  double stale_max_s = 0;
};

struct RunResult {
  double wall_s = 0;   ///< engine call to return, teardown included
  double setup_s = 0;  ///< engine call to the final PolicyFactory call
  std::uint64_t flows = 0;  ///< completed churn sessions / on-off connections
  std::uint64_t digest = 0;
  core::ScenarioMetrics metrics;
  PhiCounters phi;
  /// The run's private metric registry (every instrument the engine
  /// resolved during the run, shard registries folded in).
  std::unique_ptr<telemetry::MetricRegistry> registry;
};

/// Run `spec` once. `probes` non-null wraps every layer interface in its
/// timing proxy (the traced run).
RunResult run_once(const Workload& w, const core::ScenarioSpec& spec,
                   LayerProbes* probes);

/// Empty when the run's outputs satisfy the workload's invariants, else
/// the first violated one.
std::string check_invariants(const Workload& w, const RunResult& r);

}  // namespace phi::ledger
