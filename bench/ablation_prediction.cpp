// ablation_prediction — §3.5: performance prediction from aggregate
// history. Feed the predictor the Phi reports generated by simulated
// workloads on two paths (one fast/clean, one congested), then check the
// predictions against held-out measurements: download-time estimates and
// the VoIP go/no-go signal.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/prediction.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

core::ScenarioSpec path_scenario(std::size_t pairs, double rate_mbps,
                                 std::uint64_t seed) {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(pairs);
  std::get<sim::DumbbellConfig>(spec.topology).bottleneck_rate =
      rate_mbps * util::kMbps;
  spec.workload.mean_on_bytes = 300e3;
  spec.workload.mean_off_s = 1.0;
  spec.seed = seed;
  return spec;
}

/// Run the scenario and pour every sender's per-connection stats into the
/// predictor via an advisor; returns the run's aggregate for comparison.
core::ScenarioMetrics feed(core::PerformancePredictor& pred,
                           core::PathKey path,
                           const core::ScenarioSpec& cfg) {
  struct FeedAdvisor : tcp::ConnectionAdvisor {
    core::PerformancePredictor* pred;
    core::PathKey path;
    void after_connection(const tcp::ConnStats& s,
                          const tcp::TcpSender&) override {
      core::PerfObservation o;
      o.throughput_bps = s.throughput_bps();
      o.rtt_s = s.mean_rtt_s;
      o.loss_rate = s.retransmit_rate();
      o.jitter_ms = (s.mean_rtt_s - s.min_rtt_s) * 1e3;
      pred->record(path, o);
    }
  };
  return core::run_scenario(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&pred, path](std::size_t) {
        auto a = std::make_unique<FeedAdvisor>();
        a->pred = &pred;
        a->path = path;
        return a;
      });
}

}  // namespace

int main() {
  bench::banner("Ablation (3.5): performance prediction");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 4 : 2;

  core::PerformancePredictor pred;
  constexpr core::PathKey kFast = 1, kCongested = 2;

  // History phase.
  bench::WallTimer timer;
  for (int r = 0; r < runs; ++r) {
    feed(pred, kFast, path_scenario(4, 50.0, 800 + r));
    feed(pred, kCongested, path_scenario(16, 10.0, 900 + r));
  }

  // Held-out measurement phase.
  core::PerformancePredictor holdout;
  const auto fast_now = feed(holdout, kFast, path_scenario(4, 50.0, 850));
  const auto cong_now =
      feed(holdout, kCongested, path_scenario(16, 10.0, 950));

  util::TextTable t;
  t.header({"Path", "Predicted median tput (Mbps)",
            "Held-out median tput (Mbps)", "10 MB download est (s)",
            "VoIP MOS", "Call advisable?"});
  auto row = [&](const char* name, core::PathKey key,
                 const core::PerformancePredictor& ho) {
    const auto p = pred.predict(key);
    const auto actual = ho.predict(key);
    t.row({name, util::TextTable::num(p.expected_throughput_bps / 1e6, 2),
           util::TextTable::num(actual.expected_throughput_bps / 1e6, 2),
           util::TextTable::num(
               pred.predicted_download_time_s(key, 10 * 1000 * 1000), 1),
           util::TextTable::num(pred.predicted_voip_mos(key), 2),
           pred.voip_call_advisable(key) ? "yes" : "no"});
  };
  row("fast/clean (50 Mbps, 4 senders)", kFast, holdout);
  row("congested (10 Mbps, 16 senders)", kCongested, holdout);
  std::printf("\n%s", t.str().c_str());
  (void)fast_now;
  (void)cong_now;

  const auto pf = pred.predict(kFast);
  const auto pc = pred.predict(kCongested);
  const auto af = holdout.predict(kFast);
  const auto ac = holdout.predict(kCongested);
  const double err_f =
      af.expected_throughput_bps > 0
          ? pf.expected_throughput_bps / af.expected_throughput_bps
          : 0;
  const double err_c =
      ac.expected_throughput_bps > 0
          ? pc.expected_throughput_bps / ac.expected_throughput_bps
          : 0;
  std::printf("\nprediction/actual ratio: fast %.2f, congested %.2f "
              "(1.0 = perfect)   (%.1f s)\n",
              err_f, err_c, timer.seconds());
  std::printf("claim check: congested path MOS below fast path MOS: %s\n",
              pred.predicted_voip_mos(kCongested) <
                      pred.predicted_voip_mos(kFast)
                  ? "yes"
                  : "NO");
  bench::dump_metrics("ablation_prediction");
  return 0;
}
