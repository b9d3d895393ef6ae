// ablation_aqm — how much of Phi's benefit survives active queue
// management? §3.1 grounds Phi's coordination story in the prevalence of
// FIFO drop-tail queues; this ablation swaps the bottleneck for RED+ECN
// and re-runs the Figure-2-style comparison: {drop-tail, RED+ECN} x
// {default Cubic, Phi-tuned Cubic}.
#include <cstdio>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/sweep.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

core::ScenarioSpec workload(bool red, std::uint64_t seed) {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(12);
  std::get<sim::DumbbellConfig>(spec.topology).queue =
      red ? sim::DumbbellConfig::Queue::kRedEcn
          : sim::DumbbellConfig::Queue::kDropTail;
  spec.ecn = red;
  spec.seed = seed;
  return spec;
}

}  // namespace

int main() {
  bench::banner("Ablation: Phi under RED+ECN vs drop-tail FIFO");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 8 : 4;
  const core::SweepSpec grid =
      bench::scale_from_env() == bench::Scale::kFull
          ? core::SweepSpec::paper()
          : core::SweepSpec::coarse();

  util::TextTable t;
  t.header({"Queue", "Cubic params", "Tput (Mbps)", "Qdelay (ms)", "Loss",
            "P_l (M)"});
  std::vector<std::vector<std::string>> csv;

  for (const bool red : {false, true}) {
    bench::WallTimer timer;
    // Sweep under this queue discipline to find its own optimum.
    const auto sweep = core::run_cubic_sweep(workload(red, 51), grid, runs);
    const auto& dflt = sweep.default_point();
    const auto& best = sweep.best();
    const char* qname = red ? "RED+ECN" : "drop-tail";
    auto row = [&](const char* label, const core::SweepPoint& p) {
      t.row({std::string(qname) + " / " + label, p.params.str(),
             util::TextTable::num(p.mean.throughput_bps / 1e6, 2),
             util::TextTable::num(p.mean.mean_queue_delay_s * 1e3, 1),
             util::TextTable::pct(p.mean.loss_rate, 2),
             util::TextTable::num(p.score / 1e6, 2)});
      csv.push_back({qname, label,
                     util::TextTable::num(p.mean.throughput_bps, 0),
                     util::TextTable::num(p.mean.mean_queue_delay_s * 1e3, 2),
                     util::TextTable::num(p.mean.loss_rate, 5),
                     util::TextTable::num(p.score, 0)});
    };
    row("default", dflt);
    row("phi-tuned", best);
    std::printf("%s sweep: tuned/default P_l = x%.2f   (%.1f s)\n", qname,
                dflt.score > 0 ? best.score / dflt.score : 0.0,
                timer.seconds());
  }

  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nreading: RED+ECN already shortens the default's queue, so Phi's\n"
      "delay advantage shrinks under AQM — but parameter tuning still\n"
      "pays on throughput/P_l, and the paper's drop-tail premise is the\n"
      "deployed reality this ablation quantifies against.\n");
  bench::write_csv("ablation_aqm.csv",
                   {"queue", "setting", "tput_bps", "qdelay_ms", "loss",
                    "power_l"},
                   csv);
  bench::dump_metrics("ablation_aqm");
  return 0;
}
