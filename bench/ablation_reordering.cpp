// ablation_reordering — §3.2 end to end: "the threshold of 3 duplicate
// ACKs typically used to trigger TCP fast retransmission could be
// adjusted if the experience of other connections suggests that
// reordering is prevalent."
//
// A jittery bottleneck reorders packets; with the standard threshold of 3
// dup-ACKs, senders fast-retransmit spuriously and cut their windows for
// no reason. Phase 1 lets a fleet share its experience through a
// DupAckThresholdAdvisor; phase 2 compares fixed threshold 3 against the
// advised threshold on the same workload.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/adaptation.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

constexpr core::PathKey kPath = 3;

/// Every sender reports as group 0, whose retransmit rate is the result.
core::ScenarioSpec jittery(std::uint64_t seed) {
  core::ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{
      .pairs = 4,  // light load: drops are rare, reordering is not
      .bottleneck_rate = 30.0 * util::kMbps,
      .rtt = util::milliseconds(100),
      .bottleneck_jitter = util::milliseconds(12)};
  for (std::size_t i = 0; i < 4; ++i)
    spec.senders.push_back({.endpoint = i, .group = 0});
  spec.workload.mean_on_bytes = 400e3;
  spec.workload.mean_off_s = 1.0;
  spec.duration = util::seconds(60);
  spec.seed = seed;
  return spec;
}

/// Advisor applying a dup-ACK threshold and recording shared experience.
struct ThresholdAdvisor : tcp::ConnectionAdvisor {
  core::DupAckThresholdAdvisor* shared = nullptr;  // may be null (fixed)
  int fixed_threshold = 3;

  void before_connection(tcp::TcpSender& sender) override {
    sender.set_dupack_threshold(
        shared != nullptr ? shared->recommend(kPath) : fixed_threshold);
  }
  void after_connection(const tcp::ConnStats& s,
                        const tcp::TcpSender&) override {
    if (shared == nullptr) return;
    // On this lightly-loaded path real drops are rare; a fast-retransmit
    // episode without a timeout is the signature of reordering.
    const bool spurious = s.loss_events > 0 && s.timeouts == 0;
    shared->record_connection(kPath, spurious);
  }
};

struct RunResult {
  double tput = 0;
  double rtx_rate = 0;
  std::int64_t conns = 0;
};

RunResult run_with(core::DupAckThresholdAdvisor* shared, int fixed,
                   std::uint64_t seed) {
  const auto cfg = jittery(seed);
  const auto m = core::run_scenario(
      cfg,
      [](std::size_t) {
        return std::make_unique<tcp::Cubic>(tcp::CubicParams{64, 8, 0.2});
      },
      [&](std::size_t) {
        auto a = std::make_unique<ThresholdAdvisor>();
        a->shared = shared;
        a->fixed_threshold = fixed;
        return a;
      });
  RunResult r;
  r.tput = m.throughput_bps;
  r.conns = m.connections;
  r.rtx_rate = m.groups.empty() ? 0.0 : m.groups[0].retransmit_rate;
  return r;
}

}  // namespace

int main() {
  bench::banner("Ablation (3.2): dup-ACK threshold on a reordering path");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 6 : 3;

  // Phase 1: the fleet shares its experience (threshold still 3).
  core::DupAckThresholdAdvisor shared;
  bench::WallTimer timer;
  for (int r = 0; r < runs; ++r)
    (void)run_with(&shared, 3, util::derive_seed(900, static_cast<std::uint64_t>(r)));
  std::printf("\nshared learning: %zu connections reported, reordering "
              "prevalence %.0f%%, advised threshold %d (was 3)\n",
              shared.support(kPath), shared.prevalence(kPath) * 100.0,
              shared.recommend(kPath));

  // Phase 2: fixed 3 vs advised, fresh seeds.
  util::RunningStats tput3, tputA, rtx3, rtxA;
  for (int r = 0; r < runs; ++r) {
    const auto seed = util::derive_seed(950, static_cast<std::uint64_t>(r));
    const auto fixed = run_with(nullptr, 3, seed);
    const auto advised = run_with(&shared, 0, seed);
    tput3.add(fixed.tput);
    tputA.add(advised.tput);
    rtx3.add(fixed.rtx_rate);
    rtxA.add(advised.rtx_rate);
  }

  util::TextTable t;
  t.header({"Policy", "Throughput (Mbps)", "Retransmit rate"});
  t.row({"fixed dup-ACK threshold 3",
         util::TextTable::num(tput3.mean() / 1e6, 2),
         util::TextTable::pct(rtx3.mean(), 2)});
  t.row({"Phi-advised threshold " + std::to_string(shared.recommend(kPath)),
         util::TextTable::num(tputA.mean() / 1e6, 2),
         util::TextTable::pct(rtxA.mean(), 2)});
  std::printf("\n%s", t.str().c_str());
  std::printf("\nclaim check: advised threshold cuts spurious retransmits "
              "(%s -> %s) %s throughput loss   (%.1f s)\n",
              util::TextTable::pct(rtx3.mean(), 2).c_str(),
              util::TextTable::pct(rtxA.mean(), 2).c_str(),
              tputA.mean() >= tput3.mean() * 0.98 ? "without" : "with some",
              timer.seconds());
  bench::write_csv(
      "ablation_reordering.csv",
      {"policy", "tput_bps", "rtx_rate"},
      {{"fixed3", util::TextTable::num(tput3.mean(), 0),
        util::TextTable::num(rtx3.mean(), 5)},
       {"advised", util::TextTable::num(tputA.mean(), 0),
        util::TextTable::num(rtxA.mean(), 5)}});
  bench::dump_metrics("ablation_reordering");
  return 0;
}
