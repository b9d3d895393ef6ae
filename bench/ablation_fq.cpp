// ablation_fq — §3.1's root cause, tested directly: "the prevalence of
// FIFO queuing means that a flow is not insulated from the actions of
// other flows... FIFO queuing is not incentives-compatible." Re-runs the
// Figure-4 mixed deployment (half tuned, half default) under drop-tail
// FIFO and under per-flow DRR fair queueing. Under FQ each flow is
// isolated, so (a) unmodified blasters can no longer damage modified
// senders, and (b) much of the *coordination* motive disappears — tuning
// becomes a private good. Exactly the paper's argument for why today's
// FIFO Internet needs Phi.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

/// Even senders (tuned) report as group 0, odd ones (default) as group 1.
core::ScenarioSpec workload(sim::DumbbellConfig::Queue queue,
                            std::uint64_t seed) {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(8);
  std::get<sim::DumbbellConfig>(spec.topology).queue = queue;
  for (std::size_t i = 0; i < 8; ++i)
    spec.senders.push_back({.endpoint = i, .group = static_cast<int>(i % 2)});
  spec.seed = seed;
  return spec;
}

struct MixedOutcome {
  double modified_tput = 0;
  double unmodified_tput = 0;
  double modified_rtt = 0;
  double unmodified_rtt = 0;
};

MixedOutcome run_mixed(sim::DumbbellConfig::Queue queue,
                       std::uint64_t seed) {
  const tcp::CubicParams tuned{64, 32, 0.2};  // the Fig.-4 optimum
  const auto m = core::run_scenario(
      workload(queue, seed),
      [tuned](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
        return std::make_unique<tcp::Cubic>(i % 2 == 0 ? tuned
                                                       : tcp::CubicParams{});
      });
  MixedOutcome out;
  for (const auto& g : m.groups) {
    if (g.group == 0) {
      out.modified_tput = g.throughput_bps;
      out.modified_rtt = g.mean_rtt_s;
    } else {
      out.unmodified_tput = g.throughput_bps;
      out.unmodified_rtt = g.mean_rtt_s;
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation (3.1): mixed deployment under FIFO vs fair queueing");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 8 : 4;

  util::TextTable t;
  t.header({"Queue", "Group", "Tput (Mbps)", "Mean RTT (ms)",
            "Power (M)"});
  std::vector<std::vector<std::string>> csv;
  bench::WallTimer timer;
  double fifo_gap = 0, fq_gap = 0;
  for (const auto queue : {sim::DumbbellConfig::Queue::kDropTail,
                           sim::DumbbellConfig::Queue::kFq}) {
    const char* qname =
        queue == sim::DumbbellConfig::Queue::kFq ? "DRR fair queueing"
                                                 : "drop-tail FIFO";
    util::RunningStats mt, ut, mr, ur;
    for (int r = 0; r < runs; ++r) {
      const auto o = run_mixed(queue, util::derive_seed(1600, static_cast<std::uint64_t>(r)));
      mt.add(o.modified_tput);
      ut.add(o.unmodified_tput);
      mr.add(o.modified_rtt);
      ur.add(o.unmodified_rtt);
    }
    auto row = [&](const char* group, const util::RunningStats& tput,
                   const util::RunningStats& rtt) {
      const double power =
          rtt.mean() > 0 ? tput.mean() / rtt.mean() : 0.0;
      t.row({qname, group, util::TextTable::num(tput.mean() / 1e6, 2),
             util::TextTable::num(rtt.mean() * 1e3, 1),
             util::TextTable::num(power / 1e6, 2)});
      csv.push_back({qname, group, util::TextTable::num(tput.mean(), 0),
                     util::TextTable::num(rtt.mean() * 1e3, 2)});
    };
    row("modified (tuned)", mt, mr);
    row("unmodified (default)", ut, ur);
    const double gap = mt.mean() - ut.mean();
    if (queue == sim::DumbbellConfig::Queue::kFq) {
      fq_gap = gap;
    } else {
      fifo_gap = gap;
    }
  }
  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nreading: FIFO couples the groups (the unmodified half's slow-start\n"
      "bursts inflate everyone's RTT; the tuned half's restraint leaks to\n"
      "free riders). Under DRR each flow is insulated, so tuning is a\n"
      "private good and the case for fleet-wide *coordination* (vs mere\n"
      "per-sender tuning) weakens — the paper's §3.1 incentive argument.\n"
      "tuned-vs-default throughput gap: FIFO %.2f Mbps, FQ %.2f Mbps.\n"
      "(%.1f s)\n",
      fifo_gap / 1e6, fq_gap / 1e6, timer.seconds());
  bench::write_csv("ablation_fq.csv",
                   {"queue", "group", "tput_bps", "rtt_ms"}, csv);
  bench::dump_metrics("ablation_fq");
  return 0;
}
