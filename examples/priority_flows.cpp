// priority_flows — §3.3: one entity, many flows, unequal importance.
//
// A provider pushes an HD live stream (must not stall), a standard
// stream, and two background bulk transfers through the same bottleneck.
// With autonomous senders all four get equal shares. With Phi's
// ensemble-friendly weighted allocation, bandwidth follows importance
// while the four flows together stay as aggressive as four standard TCP
// flows.
//
// Build & run:  ./build/examples/priority_flows
#include <cstdio>
#include <memory>

#include "phi/coordination.hpp"
#include "phi/scenario.hpp"

using namespace phi;

namespace {

/// Four long-running flows; flow i reports as group i.
core::ScenarioSpec shared_bottleneck(std::uint64_t seed) {
  core::ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{.pairs = 4,
                                      .bottleneck_rate = 20.0 * util::kMbps,
                                      .rtt = util::milliseconds(100)};
  for (std::size_t i = 0; i < 4; ++i)
    spec.senders.push_back({.endpoint = i, .group = static_cast<int>(i)});
  spec.workload.mean_on_bytes = 1e13;  // long-running flows
  spec.workload.start_with_off = false;
  spec.duration = util::seconds(90);
  spec.warmup = util::seconds(10);
  spec.seed = seed;
  return spec;
}

void print_shares(const char* title, const core::ScenarioMetrics& m,
                  const char* const names[4]) {
  double total = 0;
  for (const auto& g : m.groups) total += g.throughput_bps;
  std::printf("%s\n", title);
  for (const auto& g : m.groups) {
    std::printf("  %-18s %6.2f Mbps  (%4.1f%%)\n", names[g.group],
                g.throughput_bps / 1e6,
                total > 0 ? g.throughput_bps / total * 100 : 0.0);
  }
}

}  // namespace

int main() {
  const char* names[4] = {"HD live stream", "SD stream", "bulk backup",
                          "bulk prefetch"};

  // --- status quo: four equal autonomous AIMD flows ---
  const auto equal = core::run_scenario(
      shared_bottleneck(5),
      [](std::size_t) {
        return std::make_unique<core::WeightedAimd>(1.0, 0.5);
      });
  print_shares("autonomous (everyone equal):", equal, names);

  // --- Phi: weights 4:2:1:1, ensemble kept TCP-friendly ---
  const std::vector<core::FlowSpec> specs = {
      {0, 4.0}, {1, 2.0}, {2, 1.0}, {3, 1.0}};
  const auto alloc = core::allocate_priorities(specs);
  std::printf("\nweighted allocation (ensemble equivalents = %.2f):\n",
              core::ensemble_equivalents(alloc));
  for (const auto& a : alloc)
    std::printf("  %-18s weight %.0f -> AIMD gain %.2f\n",
                names[a.id], a.weight, a.increase_gain);

  const auto weighted = core::run_scenario(
      shared_bottleneck(5),
      [&](std::size_t i) {
        return std::make_unique<core::WeightedAimd>(
            alloc[i].increase_gain, alloc[i].decrease_factor);
      });
  std::printf("\n");
  print_shares("Phi-coordinated (4:2:1:1):", weighted, names);

  std::printf("\nnote: the ensemble's aggregate aggressiveness equals four\n"
              "standard flows, so cross-traffic is unaffected (see\n"
              "bench/ablation_priority for the friendliness measurement).\n");
  return 0;
}
