// trainer.hpp — offline, simulation-driven optimization of the whisker
// tree (Remy's "Remyization", simplified to fit a laptop-scale budget).
//
// Loop: evaluate the tree on the training scenarios (recording per-whisker
// use counts) -> hill-climb the action of the most-used whisker -> when no
// neighbour improves, split that whisker and continue. Common random
// numbers (fixed seeds per evaluation) make the hill-climb comparisons
// low-variance.
//
// The objective is Remy's: mean over senders of log(throughput / delay).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "phi/scenario.hpp"
#include "remy/remycc.hpp"
#include "remy/whisker.hpp"

namespace phi::remy {

/// Which utilization signal the trained controller sees.
enum class SignalMode {
  kClassic,       ///< no u signal (unmodified Remy)
  kPhiIdeal,      ///< live link-monitor utilization
  kPhiPractical,  ///< context-server lookups at connection grain
};

struct TrainerConfig {
  std::vector<core::ScenarioSpec> scenarios;  ///< training workloads
  int runs_per_scenario = 2;   ///< seeds per scenario per evaluation
  int max_rounds = 24;         ///< optimize/split cycles
  int max_hill_climb_iters = 2;
  std::size_t max_whiskers = 48;
  SignalMode mode = SignalMode::kClassic;
  Action initial_action{};

  /// Parallelism for evaluations: 0 = one job per usable CPU, 1 =
  /// serial. Evaluation runs and hill-climb candidates are independent
  /// simulations (each task works on its own tree copy; use counts fold
  /// back additively), so training is identical for any jobs value.
  int jobs = 0;

  /// A canonical training setup mirroring Table 3's topology with
  /// link-speed variation (the original Remy trained over a range of
  /// network parameters).
  static TrainerConfig table3(SignalMode mode, util::Duration sim_time =
                                                   util::seconds(30));
};

/// Result of evaluating a tree: the objective plus detail for reporting.
struct EvalResult {
  double objective = 0;  ///< mean log(throughput/delay) across senders
  double median_throughput_bps = 0;
  double median_queue_delay_s = 0;
  double median_log_power = 0;
  double loss_rate = 0;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig cfg);

  /// Evaluate `tree` on the training scenarios. Mutates use counts.
  EvalResult evaluate(WhiskerTree& tree) const;

  /// Run the optimization loop starting from a single-whisker tree (or
  /// `seed_tree` when given). `progress(round, score)` reports headway.
  WhiskerTree train(
      const std::function<void(int round, double score)>& progress = {},
      const WhiskerTree* seed_tree = nullptr) const;

  const TrainerConfig& config() const noexcept { return cfg_; }

  /// Evaluate a *fixed* tree under a given signal mode on one scenario,
  /// returning per-sender medians — the Table 3 measurement. Exposed so
  /// benches/tests can score trained trees on held-out seeds.
  static EvalResult score_tree(const WhiskerTree& tree, SignalMode mode,
                               const core::ScenarioSpec& scenario,
                               int runs, int jobs = 0);

 private:
  TrainerConfig cfg_;
};

}  // namespace phi::remy
