// fig3_stability — reproduces Figure 3: is the optimal parameter setting a
// statistical fluke? Leave-one-out validation: pick the "optimal" setting
// from one run, evaluate it on the remaining n-1 runs. If the gains
// persist, the setting generalizes (and a Phi context server can safely
// hand it to new connections).
#include <cstdio>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/sweep.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

core::ScenarioSpec workload(std::size_t pairs) {
  core::ScenarioSpec cfg = core::presets::paper_dumbbell(pairs);
  cfg.seed = 21;
  return cfg;
}

}  // namespace

int main() {
  bench::banner("Figure 3: stability of the optimal parameter setting");
  const bench::Scale scale = bench::scale_from_env();
  const int runs = scale == bench::Scale::kFull ? 8 : 4;
  core::SweepSpec grid = scale == bench::Scale::kFull
                             ? core::SweepSpec::paper()
                             : core::SweepSpec::coarse();
  grid.jobs = bench::jobs_from_env();

  util::TextTable t;
  t.header({"Workload", "Setting", "P_l (M)", "Tput (Mbps)", "Qdelay (ms)",
            "vs default"});
  std::vector<std::vector<std::string>> csv;

  for (const std::size_t pairs : {4u, 8u, 16u}) {
    bench::WallTimer timer;
    const core::SweepResult sweep =
        core::run_cubic_sweep(workload(pairs), grid, runs);
    const core::StabilityResult st = core::leave_one_out(sweep);

    auto row = [&](const char* label, double score, double tput, double qd) {
      const double gain =
          st.default_score > 0 ? score / st.default_score : 0.0;
      std::string gain_cell = "x";
      gain_cell += util::TextTable::num(gain, 2);
      t.row({std::to_string(pairs) + " senders", label,
             util::TextTable::num(score / 1e6, 2),
             util::TextTable::num(tput / 1e6, 2),
             util::TextTable::num(qd * 1e3, 1), gain_cell});
      csv.push_back({std::to_string(pairs), label,
                     util::TextTable::num(score, 0),
                     util::TextTable::num(tput, 0),
                     util::TextTable::num(qd * 1e3, 2)});
    };
    row("default", st.default_score, st.default_throughput_bps,
        st.default_qdelay_s);
    row("optimal (per-run)", st.oracle_score, st.oracle_throughput_bps,
        st.oracle_qdelay_s);
    row("common (leave-one-out)", st.common_score,
        st.common_throughput_bps, st.common_qdelay_s);
    std::printf("  %zu senders: chosen settings per held-out run:", pairs);
    for (const auto& p : st.chosen) std::printf("  [%s]", p.str().c_str());
    std::printf("   (%.1f s)\n", timer.seconds());
  }

  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nClaim check: the leave-one-out ('common') score should stay close\n"
      "to the per-run optimal and clearly above the default -> the gains\n"
      "are not a fluke.\n");
  bench::write_csv("fig3.csv",
                   {"senders", "setting", "power_l", "tput_bps", "qdelay_ms"},
                   csv);
  bench::dump_metrics("fig3_stability");
  return 0;
}
