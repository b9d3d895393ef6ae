// ablation_sack — how much of the default-parameter penalty is recovery
// machinery rather than congestion behaviour? The paper's ns-2 senders
// were SACK-less; modern stacks run SACK. This ablation re-runs the
// Figure-2b-style workload with both transports, with default and tuned
// Cubic parameters, asking whether Phi's tuning gains survive a smarter
// recovery layer (they should: the overshoot still burns queueing delay
// and loss even when the retransmissions are surgical).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

struct Row {
  double tput = 0;
  double qdelay = 0;
  double loss = 0;
  std::uint64_t timeouts = 0;
  double power_l = 0;
};

Row run_case(bool sack, tcp::CubicParams params, std::uint64_t seed) {
  core::ScenarioSpec spec = core::presets::paper_dumbbell(16);
  spec.seed = seed;

  // SACK needs both ends enabled: use the setup hook to flip the sinks.
  const auto m = core::run_scenario_with_setup(
      spec,
      [params](std::size_t) { return std::make_unique<tcp::Cubic>(params); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        if (sack) {
          for (auto* s : live.senders) s->set_sack(true);
          for (auto* s : live.sinks) s->set_sack(true);
        }
        return nullptr;
      });
  Row r;
  r.tput = m.throughput_bps;
  r.qdelay = m.mean_queue_delay_s;
  r.loss = m.loss_rate;
  r.timeouts = m.timeouts;
  r.power_l = m.power_l();
  return r;
}

}  // namespace

int main() {
  bench::banner("Ablation: does Phi's tuning survive SACK recovery?");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 8 : 4;

  const tcp::CubicParams tuned{32, 8, 0.8};  // the Fig.-2b-style optimum
  util::TextTable t;
  t.header({"Transport", "Params", "Tput (Mbps)", "Qdelay (ms)", "Loss",
            "Timeouts", "P_l (M)"});
  std::vector<std::vector<std::string>> csv;
  bench::WallTimer timer;
  double gain[2] = {0, 0};
  for (const bool sack : {false, true}) {
    Row avg_default{}, avg_tuned{};
    for (int r = 0; r < runs; ++r) {
      const auto seed = util::derive_seed(1900, static_cast<std::uint64_t>(r));
      const Row d = run_case(sack, tcp::CubicParams{}, seed);
      const Row u = run_case(sack, tuned, seed);
      avg_default.tput += d.tput / runs;
      avg_default.qdelay += d.qdelay / runs;
      avg_default.loss += d.loss / runs;
      avg_default.timeouts += d.timeouts;
      avg_default.power_l += d.power_l / runs;
      avg_tuned.tput += u.tput / runs;
      avg_tuned.qdelay += u.qdelay / runs;
      avg_tuned.loss += u.loss / runs;
      avg_tuned.timeouts += u.timeouts;
      avg_tuned.power_l += u.power_l / runs;
    }
    const char* tname = sack ? "SACK" : "NewReno";
    auto row = [&](const char* label, const Row& r) {
      t.row({tname, label, util::TextTable::num(r.tput / 1e6, 2),
             util::TextTable::num(r.qdelay * 1e3, 1),
             util::TextTable::pct(r.loss, 2), std::to_string(r.timeouts),
             util::TextTable::num(r.power_l / 1e6, 2)});
      csv.push_back({tname, label, util::TextTable::num(r.tput, 0),
                     util::TextTable::num(r.qdelay * 1e3, 2),
                     util::TextTable::num(r.loss, 5),
                     std::to_string(r.timeouts)});
    };
    row("default", avg_default);
    row("phi-tuned", avg_tuned);
    gain[sack ? 1 : 0] =
        avg_default.power_l > 0 ? avg_tuned.power_l / avg_default.power_l
                                : 0;
  }
  std::printf("\n%s", t.str().c_str());
  // Receive-side view across all cases, from the tcp.sink.* counters:
  // how much of the retransmission traffic was spurious by the time it
  // reached the receiver. (Reads 0 in PHI_TELEMETRY_OFF builds.)
  {
    const auto received =
        telemetry::registry().counter("tcp.sink.packets_received").value();
    const auto dups =
        telemetry::registry().counter("tcp.sink.duplicates").value();
    std::printf("\nsink duplicate rate: %.4f (%llu of %llu delivered)\n",
                received > 0 ? static_cast<double>(dups) /
                                   static_cast<double>(received)
                             : 0.0,
                static_cast<unsigned long long>(dups),
                static_cast<unsigned long long>(received));
  }
  std::printf("\ntuned/default P_l gain: NewReno x%.2f, SACK x%.2f —\n"
              "smarter recovery does not substitute for knowing the network\n"
              "weather before the first packet.   (%.1f s)\n",
              gain[0], gain[1], timer.seconds());
  bench::write_csv("ablation_sack.csv",
                   {"transport", "params", "tput_bps", "qdelay_ms", "loss",
                    "timeouts"},
                   csv);
  bench::dump_metrics("ablation_sack");
  return 0;
}
