// fig4_incremental — reproduces Figure 4: incremental deployment. Half the
// senders ("modified") adopt the parameter setting that would have been
// optimal under full cooperation; the other half ("unmodified") keep the
// defaults. The paper's findings to reproduce: modified senders still see
// better throughput and delay; even unmodified senders improve on the
// power metric, though their queueing delay can be slightly worse; the
// advantage shrinks as utilization rises.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/sweep.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

core::ScenarioSpec workload(std::size_t pairs, std::uint64_t seed) {
  core::ScenarioSpec cfg = core::presets::paper_dumbbell(pairs);
  cfg.seed = seed;
  return cfg;
}

struct MixedResult {
  core::GroupMetrics modified;
  core::GroupMetrics unmodified;
  core::ScenarioMetrics all;
};

MixedResult run_mixed(core::ScenarioSpec cfg, tcp::CubicParams tuned) {
  // Even sender indices are modified (group 0), odd keep defaults
  // (group 1).
  const std::size_t pairs = sim::endpoint_count(cfg.topology);
  for (std::size_t i = 0; i < pairs; ++i)
    cfg.senders.push_back({.endpoint = i, .group = static_cast<int>(i % 2)});
  auto metrics = core::run_scenario(
      cfg,
      [tuned](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
        return std::make_unique<tcp::Cubic>(i % 2 == 0 ? tuned
                                                       : tcp::CubicParams{});
      });
  MixedResult out;
  out.all = metrics;
  for (const auto& g : metrics.groups) {
    if (g.group == 0) out.modified = g;
    if (g.group == 1) out.unmodified = g;
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 4: incremental deployment (half modified)");
  const bench::Scale scale = bench::scale_from_env();
  const int runs = scale == bench::Scale::kFull ? 8 : 4;
  const core::SweepSpec grid = scale == bench::Scale::kFull
                                   ? core::SweepSpec::paper()
                                   : core::SweepSpec::coarse();

  // The paper's Fig. 4 operates around 60% utilization ("the moderate
  // link utilization (60%) means that modified flows sometimes get lucky
  // in not encountering any unmodified flows"); 8 senders of this
  // workload land there. First find the full-cooperation optimum.
  const std::size_t pairs = 8;
  bench::WallTimer timer;
  const core::SweepResult sweep =
      core::run_cubic_sweep(workload(pairs, 31), grid, runs);
  const tcp::CubicParams tuned = sweep.best().params;
  std::printf("full-cooperation optimum at ~%.0f%% utilization: %s  (%.1f s)\n",
              sweep.best().mean.utilization * 100.0, tuned.str().c_str(),
              timer.seconds());

  // Baseline: everyone default. Mixed: half modified.
  util::RunningStats base_tput, base_rtt, base_rtx;
  util::RunningStats mod_tput, mod_rtt, mod_rtx;
  util::RunningStats unmod_tput, unmod_rtt, unmod_rtx;
  util::RunningStats mixed_qdelay, base_qdelay;
  for (int r = 0; r < runs; ++r) {
    const auto cfg = workload(pairs, util::derive_seed(400, static_cast<std::uint64_t>(r)));
    const MixedResult mixed = run_mixed(cfg, tuned);
    const auto base = core::run_cubic_scenario(cfg, tcp::CubicParams{});

    base_tput.add(base.throughput_bps);
    base_rtt.add(base.mean_rtt_s);
    base_qdelay.add(base.mean_queue_delay_s);
    mixed_qdelay.add(mixed.all.mean_queue_delay_s);
    mod_tput.add(mixed.modified.throughput_bps);
    mod_rtt.add(mixed.modified.mean_rtt_s);
    mod_rtx.add(mixed.modified.retransmit_rate);
    unmod_tput.add(mixed.unmodified.throughput_bps);
    unmod_rtt.add(mixed.unmodified.mean_rtt_s);
    unmod_rtx.add(mixed.unmodified.retransmit_rate);
  }

  auto power = [](double tput, double rtt) {
    return rtt > 0 ? tput / rtt : 0.0;
  };

  util::TextTable t;
  t.header({"Group", "Tput (Mbps)", "Mean RTT (ms)", "Rtx rate",
            "Power (M)"});
  t.row({"all-default (baseline)",
         util::TextTable::num(base_tput.mean() / 1e6, 2),
         util::TextTable::num(base_rtt.mean() * 1e3, 1), "-",
         util::TextTable::num(power(base_tput.mean(), base_rtt.mean()) / 1e6,
                              2)});
  t.row({"modified half", util::TextTable::num(mod_tput.mean() / 1e6, 2),
         util::TextTable::num(mod_rtt.mean() * 1e3, 1),
         util::TextTable::pct(mod_rtx.mean(), 2),
         util::TextTable::num(power(mod_tput.mean(), mod_rtt.mean()) / 1e6,
                              2)});
  t.row({"unmodified half", util::TextTable::num(unmod_tput.mean() / 1e6, 2),
         util::TextTable::num(unmod_rtt.mean() * 1e3, 1),
         util::TextTable::pct(unmod_rtx.mean(), 2),
         util::TextTable::num(
             power(unmod_tput.mean(), unmod_rtt.mean()) / 1e6, 2)});
  std::printf("\n%s", t.str().c_str());
  std::printf("bottleneck queueing delay: all-default %.1f ms -> mixed %.1f ms\n",
              base_qdelay.mean() * 1e3, mixed_qdelay.mean() * 1e3);

  bench::write_csv(
      "fig4.csv", {"group", "tput_bps", "rtt_ms", "rtx_rate"},
      {{"all-default", util::TextTable::num(base_tput.mean(), 0),
        util::TextTable::num(base_rtt.mean() * 1e3, 2), "-"},
       {"modified", util::TextTable::num(mod_tput.mean(), 0),
        util::TextTable::num(mod_rtt.mean() * 1e3, 2),
        util::TextTable::num(mod_rtx.mean(), 4)},
       {"unmodified", util::TextTable::num(unmod_tput.mean(), 0),
        util::TextTable::num(unmod_rtt.mean() * 1e3, 2),
        util::TextTable::num(unmod_rtx.mean(), 4)}});
  bench::dump_metrics("fig4_incremental");
  return 0;
}
