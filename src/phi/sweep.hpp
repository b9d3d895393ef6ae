// sweep.hpp — the §2.2.1 machinery: sweep Cubic's (initial_ssthresh,
// windowInit_, beta) grid over a workload, score each setting by the
// loss-extended power metric P_l, pick the optimum, check its stability
// with leave-one-out validation (Fig. 3), and compile per-congestion-
// context recommendations into the table the context server serves.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "phi/recommendation.hpp"
#include "phi/scenario.hpp"

namespace phi::core {

/// The parameter grid. Table 2 of the paper: ssthresh and windowInit_
/// sweep 2..256 in powers of two; beta sweeps 0.1..0.9 in steps of 0.1.
struct SweepSpec {
  std::vector<std::int64_t> ssthresh;
  std::vector<std::int64_t> winit;
  std::vector<double> betas;

  /// Parallelism for run_cubic_sweep: 0 = one job per usable CPU,
  /// 1 = serial (inline on the caller). Any value produces bit-identical
  /// SweepResults — every (setting, repetition) pair is an independent
  /// simulation seeded by util::derive_seed(base.seed, rep), and the
  /// executor collects results in submission order.
  int jobs = 0;

  /// Full Table-2 grid (8 x 8 x 9 = 576 settings).
  static SweepSpec paper();
  /// Reduced grid for quick runs (5 x 5 x 3 = 75 settings): same span,
  /// coarser steps. Used as the bench default on small machines.
  static SweepSpec coarse();
  /// beta-only sweep with defaults for the rest (Fig. 2c, long flows).
  static SweepSpec beta_only();

  std::vector<tcp::CubicParams> combos() const;
};

struct SweepPoint {
  tcp::CubicParams params;
  std::vector<ScenarioMetrics> runs;  ///< one entry per repetition
  ScenarioMetrics mean;               ///< field-wise average
  double score = 0;                   ///< mean per-run P_l

  /// Score of this setting on a single run (P_l).
  double run_score(std::size_t i) const { return runs.at(i).power_l(); }
};

struct SweepResult {
  std::vector<SweepPoint> points;
  std::size_t best_index = 0;
  std::size_t default_index = std::numeric_limits<std::size_t>::max();
  int n_runs = 0;

  const SweepPoint& best() const { return points.at(best_index); }
  bool has_default() const noexcept {
    return default_index < points.size();
  }
  const SweepPoint& default_point() const {
    return points.at(default_index);
  }
};

/// Progress callback. With spec.jobs != 1 it is invoked from worker
/// threads (serialized by a mutex, `done` strictly increasing), so it
/// must not touch thread-unsafe state of the caller's.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

/// Run the sweep: every parameter combination, `n_runs` repetitions with
/// seeds util::derive_seed(base.seed, r) — the same seed for every
/// setting at a given r (common random numbers, so settings are compared
/// under identical workload draws). The default parameter setting is
/// always included even if absent from the grid. Repetitions run
/// spec.jobs-wide in parallel; the result is independent of jobs.
SweepResult run_cubic_sweep(const ScenarioSpec& base, const SweepSpec& spec,
                            int n_runs, const ProgressFn& progress = {});

/// Figure 3: leave-one-out validation. For each run r, select the best
/// setting using run r only, then average that setting's P_l over the
/// remaining runs. Also reports the per-run-oracle and default scores.
struct StabilityResult {
  double default_score = 0;   ///< default params, averaged over runs
  double oracle_score = 0;    ///< per-run best, scored on its own run
  double common_score = 0;    ///< leave-one-out transferred settings
  std::vector<tcp::CubicParams> chosen;  ///< per held-out run

  double default_throughput_bps = 0, oracle_throughput_bps = 0,
         common_throughput_bps = 0;
  double default_qdelay_s = 0, oracle_qdelay_s = 0, common_qdelay_s = 0;
};
StabilityResult leave_one_out(const SweepResult& sweep);

/// Average of per-run metrics (field-wise; groups are dropped).
ScenarioMetrics average_metrics(const std::vector<ScenarioMetrics>& runs);

/// Build the recommendation table: for each workload, measure the
/// congestion context under default parameters (the pre-Phi "weather"),
/// sweep for the optimum, and file it under the context's bucket. The
/// context's competing_senders is the spec's sender count.
RecommendationTable build_recommendation_table(
    const std::vector<ScenarioSpec>& workloads, const SweepSpec& spec,
    int n_runs, const ContextBucketer& bucketer = {},
    const ProgressFn& progress = {});

}  // namespace phi::core
