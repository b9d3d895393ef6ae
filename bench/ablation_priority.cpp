// ablation_priority — §3.3: prioritization across flows. One entity runs
// four flows with weights 4:2:1:1 over a shared bottleneck using
// ensemble-TCP-friendly weighted AIMD. Checks (a) throughput splits
// roughly by weight, and (b) the weighted ensemble takes about the same
// aggregate share as four standard flows when competing against a
// background of standard senders.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "phi/coordination.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

/// One long-running sender per entry of `groups`; sender i reports as
/// group groups[i].
core::ScenarioSpec long_running(std::uint64_t seed,
                                const std::vector<int>& groups) {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i)
    spec.senders.push_back({.endpoint = i, .group = groups[i]});
  spec.workload.mean_on_bytes = 1e13;  // effectively infinite transfers
  spec.workload.start_with_off = false;
  spec.duration = util::seconds(90);
  spec.warmup = util::seconds(10);
  spec.seed = seed;
  return spec;
}

}  // namespace

int main() {
  bench::banner("Ablation (3.3): ensemble-friendly flow prioritization");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 6 : 3;

  const std::vector<core::FlowSpec> specs = {
      {0, 4.0}, {1, 2.0}, {2, 1.0}, {3, 1.0}};
  const auto alloc = core::allocate_priorities(specs);
  std::printf("\nallocations (ensemble equivalents = %.2f for 4 flows):\n",
              core::ensemble_equivalents(alloc));
  for (const auto& a : alloc)
    std::printf("  flow %llu: weight %.1f -> gain %.3f, expected share %.0f%%\n",
                static_cast<unsigned long long>(a.id), a.weight,
                a.increase_gain, a.expected_share * 100.0);

  // Part A: the 4 weighted flows alone. Shares should track weights.
  util::RunningStats share[4];
  for (int r = 0; r < runs; ++r) {
    const auto m = core::run_scenario(
        long_running(util::derive_seed(600, static_cast<std::uint64_t>(r)),
                     {0, 1, 2, 3}),
        [&](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
          return std::make_unique<core::WeightedAimd>(
              alloc[i].increase_gain, alloc[i].decrease_factor);
        });
    double total = 0;
    for (const auto& g : m.groups) total += g.throughput_bps;
    for (const auto& g : m.groups)
      if (total > 0)
        share[g.group].add(g.throughput_bps / total);
  }

  util::TextTable t;
  t.header({"Flow", "Weight", "Expected share", "Measured share"});
  for (std::size_t i = 0; i < 4; ++i) {
    t.row({std::to_string(i), util::TextTable::num(specs[i].weight, 1),
           util::TextTable::pct(alloc[i].expected_share, 0),
           util::TextTable::pct(share[i].mean(), 0)});
  }
  std::printf("\nPart A - weighted ensemble alone:\n%s", t.str().c_str());

  // Part B: friendliness. 4 weighted flows + 4 standard AIMD background
  // flows vs. 8 standard flows: the ensemble's aggregate share should be
  // near 50% either way.
  util::RunningStats ensemble_share, control_share;
  for (int r = 0; r < runs; ++r) {
    // The first four senders are the ensemble (group 0).
    const core::ScenarioSpec spec = long_running(
        util::derive_seed(700, static_cast<std::uint64_t>(r)),
        {0, 0, 0, 0, 1, 1, 1, 1});
    const auto mixed = core::run_scenario(
        spec,
        [&](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
          if (i < 4)
            return std::make_unique<core::WeightedAimd>(
                alloc[i].increase_gain, alloc[i].decrease_factor);
          return std::make_unique<core::WeightedAimd>(1.0, 0.5);
        });
    const auto control = core::run_scenario(
        spec, [](std::size_t) -> std::unique_ptr<tcp::CongestionControl> {
          return std::make_unique<core::WeightedAimd>(1.0, 0.5);
        });
    auto group_share = [](const core::ScenarioMetrics& m, int group) {
      double total = 0, g0 = 0;
      for (const auto& g : m.groups) {
        total += g.throughput_bps;
        if (g.group == group) g0 += g.throughput_bps;
      }
      return total > 0 ? g0 / total : 0.0;
    };
    ensemble_share.add(group_share(mixed, 0));
    control_share.add(group_share(control, 0));
  }
  std::printf("\nPart B - friendliness vs background traffic:\n"
              "  weighted ensemble aggregate share: %s\n"
              "  4 standard flows (control) share:  %s\n"
              "  (close together = ensemble is TCP-friendly)\n",
              util::TextTable::pct(ensemble_share.mean(), 1).c_str(),
              util::TextTable::pct(control_share.mean(), 1).c_str());

  bench::write_csv(
      "ablation_priority.csv",
      {"flow", "weight", "expected_share", "measured_share"},
      {{"0", "4", util::TextTable::num(alloc[0].expected_share, 3),
        util::TextTable::num(share[0].mean(), 3)},
       {"1", "2", util::TextTable::num(alloc[1].expected_share, 3),
        util::TextTable::num(share[1].mean(), 3)},
       {"2", "1", util::TextTable::num(alloc[2].expected_share, 3),
        util::TextTable::num(share[2].mean(), 3)},
       {"3", "1", util::TextTable::num(alloc[3].expected_share, 3),
        util::TextTable::num(share[3].mean(), 3)}});
  bench::dump_metrics("ablation_priority");
  return 0;
}
