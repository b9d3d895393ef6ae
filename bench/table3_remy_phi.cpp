// table3_remy_phi — reproduces Table 3: does Phi's shared utilization
// signal help even a machine-learned congestion controller?
//
// Pipeline: train one whisker tree without the u signal (Remy) and one
// with it (Remy-Phi), then score four algorithms on the Table-3 scenario
// (15 Mbps / 150 ms dumbbell, 8 senders, exp(100 KB) on / exp(0.5 s) off):
//
//   Remy-Phi-practical — u from context-server lookups (connection grain)
//   Remy-Phi-ideal     — u live from the link monitor
//   Remy               — no shared signal
//   Cubic              — default parameters
//
// Reported: median per-sender throughput, median bottleneck queueing
// delay, median log-power objective. Expected shape: ideal > practical >
// Remy on throughput/objective; Cubic trails with higher delay.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "remy/trainer.hpp"
#include "tcp/pcc.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

/// Every sender reports as its own group: the rows are medians over
/// senders.
core::ScenarioSpec table3_scenario() {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(8);
  for (std::size_t i = 0; i < 8; ++i)
    spec.senders.push_back({.endpoint = i, .group = static_cast<int>(i)});
  spec.workload.mean_on_bytes = 100e3;
  spec.workload.mean_off_s = 0.5;
  spec.seed = 9100;  // held out from training seeds
  return spec;
}

/// A hard-coded policy's row, measured identically (same scenario).
remy::EvalResult score_policy(const core::ScenarioSpec& scenario,
                              int runs, const core::PolicyFactory& make) {
  util::Samples tputs, qdelays, logps;
  std::vector<int> reps(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) reps[static_cast<std::size_t>(r)] = r;
  const auto metrics = exec::parallel_map(
      reps,
      [&](int r) {
        core::ScenarioSpec cfg = scenario;
        cfg.seed = util::derive_seed(scenario.seed,
                                     static_cast<std::uint64_t>(r));
        return core::run_scenario(cfg, make);
      },
      bench::jobs_from_env());
  for (const auto& m : metrics) {
    qdelays.add(m.mean_queue_delay_s);
    for (const auto& g : m.groups) {
      if (g.connections > 0) {
        tputs.add(g.throughput_bps);
        if (g.throughput_bps > 0 && g.mean_rtt_s > 0)
          logps.add(core::log_power(g.throughput_bps, g.mean_rtt_s));
      }
    }
  }
  remy::EvalResult res;
  res.median_throughput_bps = tputs.median();
  res.median_queue_delay_s = qdelays.median();
  res.median_log_power = logps.median();
  return res;
}

/// Optional tree cache: PHI_TREE_DIR=<dir> loads/saves trained trees so
/// repeated bench runs (or tools/train_remy products) skip retraining.
std::optional<remy::WhiskerTree> load_tree(const std::string& name) {
  const char* dir = std::getenv("PHI_TREE_DIR");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  std::ifstream f(std::string(dir) + "/" + name);
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  return remy::WhiskerTree::parse(ss.str());
}

void save_tree(const std::string& name, const remy::WhiskerTree& tree) {
  const char* dir = std::getenv("PHI_TREE_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream f(std::string(dir) + "/" + name);
  if (f) {
    f << tree.serialize();
    std::printf("  [cache] saved %s/%s\n", dir, name.c_str());
  }
}

remy::WhiskerTree train_or_load(const char* label, const std::string& file,
                                const remy::Trainer& trainer) {
  if (auto cached = load_tree(file)) {
    std::printf("%s: loaded %zu whiskers from cache\n", label,
                cached->size());
    return *cached;
  }
  std::printf("training %s...\n", label);
  bench::WallTimer t;
  const remy::WhiskerTree tree = trainer.train([](int round, double score) {
    std::printf("  round %2d: objective %.3f\n", round, score);
  });
  std::printf("  -> %zu whiskers in %.0f s\n", tree.size(), t.seconds());
  save_tree(file, tree);
  return tree;
}

}  // namespace

int main() {
  bench::banner("Table 3: Remy vs Remy-Phi (ideal & practical) vs Cubic");
  const bench::Scale scale = bench::scale_from_env();
  const bool full = scale == bench::Scale::kFull;
  const int eval_runs = full ? 8 : 4;

  auto make_cfg = [&](remy::SignalMode mode) {
    remy::TrainerConfig cfg = remy::TrainerConfig::table3(
        mode, util::seconds(full ? 30 : 20));
    cfg.max_rounds = full ? 24 : 10;
    cfg.runs_per_scenario = 2;
    cfg.max_whiskers = full ? 48 : 24;
    cfg.jobs = bench::jobs_from_env();
    return cfg;
  };

  const remy::Trainer remy_trainer(make_cfg(remy::SignalMode::kClassic));
  const remy::WhiskerTree remy_tree = train_or_load(
      "Remy (no shared signal)", "remy_classic.tree", remy_trainer);

  const remy::Trainer phi_trainer(make_cfg(remy::SignalMode::kPhiIdeal));
  const remy::WhiskerTree phi_tree = train_or_load(
      "Remy-Phi (with bottleneck utilization)", "remy_phi.tree",
      phi_trainer);

  const core::ScenarioSpec scenario = table3_scenario();
  std::printf("\nscoring on held-out seeds (%d runs each)...\n", eval_runs);
  const int jobs = bench::jobs_from_env();
  const auto practical = remy::Trainer::score_tree(
      phi_tree, remy::SignalMode::kPhiPractical, scenario, eval_runs, jobs);
  const auto ideal = remy::Trainer::score_tree(
      phi_tree, remy::SignalMode::kPhiIdeal, scenario, eval_runs, jobs);
  const auto classic = remy::Trainer::score_tree(
      remy_tree, remy::SignalMode::kClassic, scenario, eval_runs, jobs);
  const auto cubic = score_policy(scenario, eval_runs, [](std::size_t) {
    return std::make_unique<tcp::Cubic>();
  });
  const auto pcc = score_policy(scenario, eval_runs, [](std::size_t) {
    return std::make_unique<tcp::Pcc>();
  });

  bench::ResultTable t(
      "table3.csv",
      {"Algorithm", "Median throughput (Mbps)", "Median queueing delay (ms)",
       "Median objective log(P)"},
      {"algorithm", "median_tput_bps", "median_qdelay_ms",
       "median_log_power"});
  auto row = [&](const char* name, const remy::EvalResult& r) {
    t.row({name, util::TextTable::num(r.median_throughput_bps / 1e6, 2),
           util::TextTable::num(r.median_queue_delay_s * 1e3, 1),
           util::TextTable::num(r.median_log_power, 2)},
          {name, util::TextTable::num(r.median_throughput_bps, 0),
           util::TextTable::num(r.median_queue_delay_s * 1e3, 2),
           util::TextTable::num(r.median_log_power, 3)});
  };
  row("Remy-Phi-practical", practical);
  row("Remy-Phi-ideal", ideal);
  row("Remy", classic);
  row("Cubic", cubic);
  row("PCC-Vivace (extension)", pcc);
  t.print_and_dump();

  std::printf(
      "\npaper shape: ideal > practical > Remy on throughput/objective;\n"
      "Cubic lowest objective with the highest queueing delay.\n");

  bench::dump_metrics("table3_remy_phi");
  return 0;
}
