// telemetry_demo — end-to-end exercise of the telemetry subsystem: runs
// the Figure-1 dumbbell with a faulty Phi control plane, every built-in
// instrument live, one event log installed that keeps every category
// and traces every flow, time-series capture, event-loop profiling, and
// the flight recorder armed to dump on the first injected fault — then
// dumps all exporter formats:
//
//   telemetry_demo [--help] [out_dir]   (default: telemetry_demo_out)
//     out_dir/trace.json          Chrome trace_event JSON with causal
//                                 flow arrows — load in about://tracing
//                                 or ui.perfetto.dev
//     out_dir/trace.jsonl         one JSON object per event
//     out_dir/timeseries.csv      tidy time-series capture
//     out_dir/flight_dump.txt     flight-recorder dump, auto-fired by
//                                 the first injected control-plane fault
//     out_dir/metrics.prom        Prometheus text exposition
//     out_dir/metrics.json        registry snapshot as JSON
//     out_dir/metrics.csv         flat CSV of every instrument
//
// The run covers all instrumented layers: scheduler (dispatch/compaction
// plus the self-profiling run loop), bottleneck link + RED queue
// (drops/marks/occupancy), TCP senders (retransmits, cwnd cuts), context
// server (lookups/reports/leases + aggregation spans), and the fault
// injector (drops/dups/delays/crashes actually fired, each kept by the
// flight recorder).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "phi/fault_injection.hpp"
#include "phi/scenario.hpp"
#include "tcp/tracer.hpp"
#include "telemetry/telemetry.hpp"

using namespace phi;

namespace {
constexpr core::PathKey kPath = 42;
}

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    std::fprintf(stderr,
                 "usage: telemetry_demo [out_dir]   (default: "
                 "telemetry_demo_out)\n"
                 "writes trace.json trace.jsonl timeseries.csv "
                 "flight_dump.txt metrics.{prom,json,csv} into out_dir\n");
    return 0;
  }
  const std::string out = argc > 1 ? argv[1] : "telemetry_demo_out";
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out.c_str(),
                 ec.message().c_str());
    return 1;
  }

  core::ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{
      .pairs = 8, .queue = sim::DumbbellConfig::Queue::kRedEcn};
  spec.workload.mean_on_bytes = 60e3;
  spec.workload.mean_off_s = 0.4;
  spec.duration = util::seconds(30);
  spec.ecn = true;
  spec.seed = 7;
  spec.telemetry.timeseries_dt = util::milliseconds(250);
  spec.telemetry.profile = true;

  // One log for the whole run: every category, every flow traced. It
  // must be installed before the senders are built (they sample their
  // trace id at construction), so it is installed here rather than
  // through TelemetrySpec::trace_one_in, which keeps traced flows only.
  telemetry::EventLog log(telemetry::kAllCategories, /*trace_one_in=*/1,
                          spec.seed, /*capacity=*/1 << 20);
  telemetry::set_event_log(&log);
  // Black box armed on the fault category: the first injected fault
  // writes the whole per-component event history to disk, exactly the
  // "what led up to this?" artifact the recorder exists for.
  telemetry::flight().arm(
      telemetry::mask_of(telemetry::Category::kFault),
      out + "/flight_dump.txt");

  std::unique_ptr<core::ContextServer> server;
  std::unique_ptr<core::FaultInjector> injector;
  std::unique_ptr<tcp::SenderTracer> tracer;

  const auto metrics = core::run_scenario_with_setup(
      spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        server = std::make_unique<core::ContextServer>(
            core::ContextServerConfig{},
            [sched] { return sched->now(); });
        server->set_path_capacity(kPath,
                                  live.topology->path_link(0).rate());
        core::FaultConfig fc;
        fc.drop_lookup = 0.02;
        fc.drop_report = 0.02;
        fc.duplicate_report = 0.05;
        fc.delay_report = 0.05;
        fc.reorder_report = 0.02;
        fc.crash = 0.01;
        fc.seed = 99;
        injector =
            std::make_unique<core::FaultInjector>(*sched, *server, fc);
        tracer = std::make_unique<tcp::SenderTracer>(
            *sched, *live.senders.front());
        // End-of-run teardown must run while the scheduler is still
        // alive (it dies with the scenario): flush() may schedule a
        // delayed delivery and stop() cancels the pending sample.
        sched->schedule_in(spec.duration - 1, [&] {
          injector->flush();
          tracer->stop();
          (void)server->serialize_state();  // snapshot instruments
        });
        return [&](std::size_t i) {
          return std::make_unique<core::FaultyPhiAdvisor>(*injector, kPath,
                                                          i);
        };
      });
  telemetry::set_event_log(nullptr);

  auto& reg = telemetry::registry();
  const bool ok = reg.write_prometheus(out + "/metrics.prom") &&
                  reg.write_json(out + "/metrics.json") &&
                  reg.write_csv(out + "/metrics.csv") &&
                  reg.write_timeseries_csv(out + "/timeseries.csv") &&
                  log.write_chrome_json(out + "/trace.json") &&
                  log.write_jsonl(out + "/trace.jsonl");
  std::printf("trace events: %zu (%zu dropped)\n", log.events().size(),
              log.dropped());
  if (metrics.capture) {
    std::printf("\nevent-loop profile:\n%s",
                metrics.capture->profile.table().c_str());
  }
  const auto& fr = telemetry::flight();
  std::printf("flight recorder: %llu events recorded, auto-dump %s\n",
              static_cast<unsigned long long>(fr.recorded()),
              fr.last_dump_path().empty() ? "(never fired)"
                                          : fr.last_dump_path().c_str());
#ifdef PHI_TELEMETRY_OFF
  std::printf("telemetry compiled out (PHI_TELEMETRY_OFF); metric/trace "
              "artifacts are empty\n");
#endif

  std::printf("scenario: %.2f Mbps aggregate, loss %.4f, util %.2f, "
              "%lld connections\n",
              metrics.throughput_bps / 1e6, metrics.loss_rate,
              metrics.utilization,
              static_cast<long long>(metrics.connections));
  std::printf("registry instruments: %zu\n", reg.size());
  std::printf("artifacts in %s: metrics.prom metrics.json metrics.csv "
              "trace.json trace.jsonl timeseries.csv flight_dump.txt\n",
              out.c_str());
  if (!ok) {
    std::fprintf(stderr, "failed writing artifacts to %s\n", out.c_str());
    return 1;
  }
  return 0;
}
