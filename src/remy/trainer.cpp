#include "remy/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "exec/pool.hpp"
#include "phi/presets.hpp"
#include "remy/phi_remy.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace phi::remy {

namespace {

constexpr core::PathKey kPath = 1;
constexpr double kStarvedPenalty = -5.0;  // log-scale objective floor

std::uint32_t dims_for(SignalMode mode) {
  return mode == SignalMode::kClassic ? 0b0111u : 0b1111u;
}

struct ProbeState {
  const sim::LinkMonitor* monitor = nullptr;
};

/// One simulation run of `tree` under `mode`. Remy's objective scores
/// every sender on its own, so sender i reports as group i.
core::ScenarioMetrics run_one(WhiskerTree& tree, SignalMode mode,
                              core::ScenarioSpec cfg) {
  if (cfg.senders.empty()) {
    cfg.senders.resize(cfg.sender_count());
    for (std::size_t i = 0; i < cfg.senders.size(); ++i)
      cfg.senders[i].endpoint = i;
  }
  for (std::size_t i = 0; i < cfg.senders.size(); ++i)
    cfg.senders[i].group = static_cast<int>(i);
  // Non-owning alias: the tree outlives the run and keeps its use counts.
  auto shared = std::shared_ptr<WhiskerTree>(&tree, [](WhiskerTree*) {});
  auto probe_state = std::make_shared<ProbeState>();
  core::ContextServer server;
  std::vector<std::shared_ptr<CachedUtilization>> caches;
  caches.reserve(cfg.sender_count());
  for (std::size_t i = 0; i < cfg.sender_count(); ++i)
    caches.push_back(std::make_shared<CachedUtilization>());

  core::PolicyFactory policy =
      [&](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
    UtilizationProbe probe;
    switch (mode) {
      case SignalMode::kClassic:
        break;
      case SignalMode::kPhiIdeal:
        probe = [probe_state] {
          return probe_state->monitor != nullptr
                     ? probe_state->monitor->recent_utilization()
                     : 0.0;
        };
        break;
      case SignalMode::kPhiPractical: {
        auto cache = caches[i];
        probe = [cache] { return cache->value; };
        break;
      }
    }
    return std::make_unique<RemyCC>(shared, std::move(probe));
  };

  core::SetupHook setup =
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
    // Path 0's monitor/link: on the dumbbell this is the bottleneck; on
    // any other topology the trainer watches the first hop.
    probe_state->monitor = &live.topology->path_monitor(0);
    if (mode != SignalMode::kPhiPractical) return nullptr;
    server.set_path_capacity(kPath, live.topology->path_link(0).rate());
    sim::Scheduler* sched = &live.topology->scheduler();
    return [&server, sched,
            &caches](std::size_t i) -> std::unique_ptr<tcp::ConnectionAdvisor> {
      return std::make_unique<PhiRemyAdvisor>(
          server, kPath, i, [sched] { return sched->now(); }, caches[i]);
    };
  };

  return core::run_scenario_with_setup(cfg, policy, setup);
}

/// Remy's objective over one run: mean over senders of log(tput/delay).
double run_objective(const core::ScenarioMetrics& m) {
  if (m.groups.empty()) return kStarvedPenalty;
  double total = 0;
  for (const auto& g : m.groups) {
    if (g.connections > 0 && g.throughput_bps > 0 && g.mean_rtt_s > 0) {
      total += core::log_power(g.throughput_bps, g.mean_rtt_s);
    } else {
      total += kStarvedPenalty;  // a sender that never got through
    }
  }
  return total / static_cast<double>(m.groups.size());
}

std::vector<Action> neighbors(const Action& a) {
  std::vector<Action> out;
  auto push = [&](double dm, double db, double fr) {
    Action n = a;
    n.window_multiple += dm;
    n.window_increment += db;
    n.intersend_ms *= fr;
    out.push_back(n.clamped());
  };
  push(+0.06, 0, 1);
  push(-0.06, 0, 1);
  push(+0.01, 0, 1);
  push(-0.01, 0, 1);
  push(0, +1.0, 1);
  push(0, -1.0, 1);
  push(0, 0, 1.5);
  push(0, 0, 1.0 / 1.5);
  return out;
}

}  // namespace

TrainerConfig TrainerConfig::table3(SignalMode mode,
                                    util::Duration sim_time) {
  TrainerConfig cfg;
  cfg.mode = mode;
  for (const double mbps : {10.0, 20.0}) {
    core::ScenarioSpec s = core::presets::paper_dumbbell(8);
    std::get<sim::DumbbellConfig>(s.topology).bottleneck_rate =
        mbps * util::kMbps;
    s.workload.mean_on_bytes = 100e3;
    s.workload.mean_off_s = 0.5;
    s.duration = sim_time;
    s.seed = 7000 + static_cast<std::uint64_t>(mbps);
    cfg.scenarios.push_back(s);
  }
  return cfg;
}

Trainer::Trainer(TrainerConfig cfg) : cfg_(std::move(cfg)) {}

namespace {

/// What one parallel evaluation task hands back: the run's metrics plus
/// a tree copy whose use counts hold only that run's increments.
struct RunOut {
  core::ScenarioMetrics metrics;
  WhiskerTree counts;
};

/// (scenario, run) pairs in the order the serial loops visit them, so
/// result folding preserves the serial accumulation order exactly.
struct RunTask {
  std::size_t scenario;
  int run;
};

std::vector<RunTask> run_tasks(const TrainerConfig& cfg) {
  std::vector<RunTask> tasks;
  tasks.reserve(cfg.scenarios.size() *
                static_cast<std::size_t>(cfg.runs_per_scenario));
  for (std::size_t s = 0; s < cfg.scenarios.size(); ++s)
    for (int r = 0; r < cfg.runs_per_scenario; ++r)
      tasks.push_back(RunTask{s, r});
  return tasks;
}

core::ScenarioSpec seeded(const core::ScenarioSpec& base, int run) {
  core::ScenarioSpec cfg = base;
  cfg.seed = util::derive_seed(base.seed, static_cast<std::uint64_t>(run));
  return cfg;
}

}  // namespace

EvalResult Trainer::evaluate(WhiskerTree& tree) const {
  EvalResult res;
  util::Samples tputs, qdelays, logps;
  double objective = 0;
  int runs = 0;
  util::RunningStats loss;

  // Runs are independent simulations; each task gets a private tree copy
  // (zeroed counts, so it reports only its own increments) and the fold
  // below walks results in (scenario, run) order — identical aggregates,
  // counts, and FP rounding for any jobs value.
  const auto tasks = run_tasks(cfg_);
  const auto outs = exec::parallel_map(
      tasks,
      [&](const RunTask& t) {
        RunOut out;
        out.counts = tree;
        out.counts.reset_use_counts();
        out.metrics = run_one(out.counts, cfg_.mode,
                              seeded(cfg_.scenarios[t.scenario], t.run));
        return out;
      },
      cfg_.jobs);

  for (const auto& out : outs) {
    tree.merge_use_counts(out.counts);
    const core::ScenarioMetrics& m = out.metrics;
    objective += run_objective(m);
    ++runs;
    qdelays.add(m.mean_queue_delay_s);
    loss.add(m.loss_rate);
    for (const auto& g : m.groups) {
      if (g.connections > 0) {
        tputs.add(g.throughput_bps);
        if (g.throughput_bps > 0 && g.mean_rtt_s > 0)
          logps.add(core::log_power(g.throughput_bps, g.mean_rtt_s));
      }
    }
  }
  res.objective = runs > 0 ? objective / runs : kStarvedPenalty;
  res.median_throughput_bps = tputs.median();
  res.median_queue_delay_s = qdelays.median();
  res.median_log_power = logps.median();
  res.loss_rate = loss.mean();
  return res;
}

WhiskerTree Trainer::train(
    const std::function<void(int round, double score)>& progress,
    const WhiskerTree* seed_tree) const {
  WhiskerTree tree = seed_tree != nullptr
                         ? *seed_tree
                         : WhiskerTree(cfg_.initial_action, dims_for(cfg_.mode));
  double best = evaluate(tree).objective;

  for (int round = 0; round < cfg_.max_rounds; ++round) {
    tree.reset_use_counts();
    best = evaluate(tree).objective;
    const auto used = tree.most_used();
    if (!used) break;  // no traffic at all — nothing to learn from
    const std::size_t idx = *used;

    bool improved_any = false;
    for (int iter = 0; iter < cfg_.max_hill_climb_iters; ++iter) {
      bool improved = false;
      const Action base_action = tree.whisker(idx).action;
      Action best_action = base_action;

      // Candidate evaluations are mutually independent: in the serial
      // loop each one saw the base tree with only whisker idx swapped,
      // and nothing downstream reads the use counts it accumulated. So
      // score all (candidate, scenario, run) simulations flat in one
      // parallel batch, then replay the serial first-wins selection over
      // objectives folded in the serial accumulation order.
      const auto cands = neighbors(base_action);
      struct CandTask {
        std::size_t cand;
        RunTask run;
      };
      const auto runs = run_tasks(cfg_);
      std::vector<CandTask> tasks;
      tasks.reserve(cands.size() * runs.size());
      for (std::size_t c = 0; c < cands.size(); ++c) {
        if (cands[c] == base_action) continue;
        for (const auto& r : runs) tasks.push_back(CandTask{c, r});
      }
      const auto mets = exec::parallel_map(
          tasks,
          [&](const CandTask& t) {
            WhiskerTree copy = tree;
            copy.whisker(idx).action = cands[t.cand];
            return run_one(copy, cfg_.mode,
                           seeded(cfg_.scenarios[t.run.scenario],
                                  t.run.run));
          },
          cfg_.jobs);

      std::size_t next = 0;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        if (cands[c] == base_action) continue;
        double objective = 0;
        for (std::size_t r = 0; r < runs.size(); ++r)
          objective += run_objective(mets[next++]);
        const double score = runs.empty()
                                 ? kStarvedPenalty
                                 : objective / static_cast<double>(runs.size());
        if (score > best + 1e-9) {
          best = score;
          best_action = cands[c];
          improved = true;
        }
      }
      tree.whisker(idx).action = best_action;
      improved_any = improved_any || improved;
      if (!improved) break;
    }
    if (!improved_any && tree.size() < cfg_.max_whiskers) {
      tree.split(idx);
    }
    if (progress) progress(round, best);
  }
  return tree;
}

EvalResult Trainer::score_tree(const WhiskerTree& tree, SignalMode mode,
                               const core::ScenarioSpec& scenario,
                               int runs, int jobs) {
  TrainerConfig cfg;
  cfg.mode = mode;
  cfg.scenarios = {scenario};
  cfg.runs_per_scenario = runs;
  cfg.jobs = jobs;
  WhiskerTree copy = tree;
  return Trainer(cfg).evaluate(copy);
}

}  // namespace phi::remy
