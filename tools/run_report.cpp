// run_report — one-stop observability report. Runs a scenario preset
// with the full telemetry stack on (causal flow tracing of every flow, a
// Phi control plane so the report->aggregate->recommend->adopt chain is
// live, time-series capture, and event-loop profiling) and fuses the
// results into a single self-contained report:
//
//   run_report <preset> [key=value ...] [--html] [--timeseries-dt=S]
//
//   <out>/report_<preset>.md          the report (or .html with --html)
//   <out>/report_<preset>_trace.json  Chrome trace_event JSON — open in
//                                     ui.perfetto.dev to see the causal
//                                     chain's flow arrows
//   <out>/report_<preset>_timeseries.csv  tidy time-series capture
//
// `out` is PHI_BENCH_OUT (default bench_results). The report contains
// the run's headline metrics, a verification of the causal span chain
// (counts per hop and paired flow arrows), the event-loop profile, a
// per-series time-series summary, and the flight recorder's view of the
// run — everything needed to understand one run, in one file.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"

using namespace phi;

namespace {

constexpr core::PathKey kPath = 1;

/// Counts per span-event name, plus flow-arrow pairing stats.
struct SpanDigest {
  std::map<std::string, std::size_t> by_name;
  std::size_t arrows_out = 0;
  std::size_t arrows_in = 0;
  std::size_t arrows_paired = 0;
  std::size_t traces = 0;

  explicit SpanDigest(const telemetry::EventLog& log) {
    std::set<std::uint32_t> outs, ins, tids;
    for (const auto& e : log.events()) {
      tids.insert(e.trace);
      if (e.phase == 's') {
        ++arrows_out;
        outs.insert(e.bind);
      } else if (e.phase == 'f') {
        ++arrows_in;
        ins.insert(e.bind);
      } else {
        ++by_name[e.name];
      }
    }
    for (std::uint32_t b : ins)
      if (outs.count(b) > 0) ++arrows_paired;
    traces = tids.size();
  }

  std::size_t count(const char* name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second;
  }
};

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: run_report <preset> [key=value ...] [--html] "
                 "[--timeseries-dt=S]\n"
                 "presets: run_scenario --list\n");
    return argc < 2 ? 2 : 0;
  }
  const std::string name = argv[1];
  const core::presets::Preset* preset = core::presets::find(name);
  if (preset == nullptr) {
    std::fprintf(stderr,
                 "unknown preset '%s'; run_scenario --list shows them\n",
                 name.c_str());
    return 2;
  }

  bench::phase("setup");
  core::ScenarioSpec spec = preset->spec;
  bool html = false;
  double dt_s = 0.25;
  for (int a = 2; a < argc; ++a) {
    if (std::strcmp(argv[a], "--html") == 0) {
      html = true;
      continue;
    }
    if (std::strncmp(argv[a], "--timeseries-dt", 15) == 0) {
      if (argv[a][15] == '=' && !bench::parse_seconds(argv[a] + 16, dt_s)) {
        std::fprintf(stderr, "--timeseries-dt wants seconds > 0\n");
        return 2;
      }
      continue;
    }
    std::string err;
    if (!core::presets::apply_override(spec, argv[a], &err)) {
      std::fprintf(stderr, "bad override: %s\n", err.c_str());
      return 2;
    }
  }

  // The full stack: every flow traced, time-series on, profiler on.
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::from_seconds(dt_s);
  spec.telemetry.profile = true;

  bench::banner(("Run report: " + name).c_str());

  // A live Phi control plane so the causal chain has something to show:
  // every sender looks up / reports through a shared context server, and
  // a pre-seeded recommendation table guarantees lookups return tuned
  // parameters (has_recommendation) from the first connection on.
  std::unique_ptr<core::ContextServer> server;

  bench::phase("run");
  core::ScenarioMetrics metrics;
  try {
    metrics = core::run_scenario_with_setup(
        spec, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
        [&](core::LiveScenario& live) -> core::AdvisorFactory {
          sim::Scheduler* sched = &live.topology->scheduler();
          server = std::make_unique<core::ContextServer>(
              core::ContextServerConfig{}, [sched] { return sched->now(); });
          // kPath stands for the dumbbell's one bottleneck; other
          // topologies have no single path to size it by.
          if (std::holds_alternative<sim::DumbbellConfig>(spec.topology))
            server->set_path_capacity(kPath,
                                      live.topology->path_link(0).rate());
          core::RecommendationTable table;
          tcp::CubicParams tuned;
          tuned.window_init = 8;
          tuned.beta = 0.15;
          for (int u = 0; u < 5; ++u)
            for (int n = 0; n < 8; ++n)
              table.set(core::ContextBucket{u, n}, tuned);
          server->set_recommendations(std::move(table));
          core::ContextServer* srv = server.get();
          return [srv, sched](std::size_t i) {
            return std::make_unique<core::PhiCubicAdvisor>(
                *srv, kPath, i + 1, [sched] { return sched->now(); });
          };
        });
  } catch (const std::exception& e) {
    // The engine rejects specs the override grammar cannot see, e.g. an
    // RTT shorter than the dumbbell's edge delays.
    std::fprintf(stderr, "bad scenario: %s\n", e.what());
    return 2;
  }

  bench::phase("export");
  const std::string dir = bench::out_dir();
  if (dir.empty()) {
    std::fprintf(stderr, "PHI_BENCH_OUT is empty: nowhere to write\n");
    return 1;
  }
  const std::string stem = dir + "/report_" + name;
  const std::string trace_path = stem + "_trace.json";
  const std::string ts_path = stem + "_timeseries.csv";
  const std::string report_path = stem + (html ? ".html" : ".md");

  bool artifacts_ok = true;
  std::size_t span_events = 0;
  if (metrics.capture) {
    artifacts_ok &= metrics.capture->log.write_chrome_json(trace_path);
    span_events = metrics.capture->log.events().size();
  }
  artifacts_ok &= telemetry::registry().write_timeseries_csv(ts_path);

  // ---- compose the report -------------------------------------------
  std::ostringstream md;
  md << "# Phi run report — " << name << "\n\n";
  md << "Preset `" << name << "`: " << preset->summary << ". "
     << spec.sender_count() << " senders, "
     << util::to_seconds(spec.duration) << " s simulated, seed "
     << spec.seed << ". Full telemetry: every flow traced, time-series "
     << "every " << dt_s << " s, event loop profiled.\n\n";

  md << "## Run summary\n\n"
     << "| metric | value |\n|---|---|\n"
     << "| throughput | " << metrics.throughput_bps / 1e6 << " Mbps |\n"
     << "| bottleneck queue delay | " << metrics.mean_queue_delay_s * 1e3
     << " ms |\n"
     << "| loss rate | " << metrics.loss_rate << " |\n"
     << "| utilization | " << metrics.utilization << " |\n"
     << "| mean RTT | " << metrics.mean_rtt_s * 1e3 << " ms |\n"
     << "| connections | " << metrics.connections << " |\n"
     << "| timeouts | " << metrics.timeouts << " |\n";
  {
    // Receive-side health from the tcp.sink.* counters: the fraction of
    // delivered data packets the sink had already seen (spurious
    // retransmissions reaching the receiver). Stub counters read 0 in
    // PHI_TELEMETRY_OFF builds and the row reports 0.
    const auto received =
        telemetry::registry().counter("tcp.sink.packets_received").value();
    const auto dups =
        telemetry::registry().counter("tcp.sink.duplicates").value();
    const double dup_rate =
        received > 0 ? static_cast<double>(dups) /
                           static_cast<double>(received)
                     : 0.0;
    md << "| sink duplicate rate | " << dup_rate << " |\n";
  }
  if (server) {
    md << "| context lookups | " << server->lookups() << " |\n"
       << "| context reports | " << server->reports() << " |\n"
       << "| state version | " << server->state_version() << " |\n";
  }
  md << "\n";

  int chain_rc = 0;
  if (metrics.capture) {
    const SpanDigest digest(metrics.capture->log);
    md << "## Causal flow chain\n\n"
       << "Every hop of the context protocol appears as a span; Chrome "
          "flow arrows (`s`/`f` pairs) tie report → aggregation → "
          "recommendation → adoption → the next connection's cwnd. Open "
          "`" << trace_path << "` in ui.perfetto.dev to follow them.\n\n"
       << "| hop | span | events |\n|---|---|---|\n"
       << "| 1 | `phi.report` (client) | " << digest.count("phi.report")
       << " |\n"
       << "| 2 | `ctx.aggregate` (server) | "
       << digest.count("ctx.aggregate") << " |\n"
       << "| 3 | `ctx.recommend` (server) | "
       << digest.count("ctx.recommend") << " |\n"
       << "| 4 | `phi.adopt` (client) | " << digest.count("phi.adopt")
       << " |\n"
       << "| 5 | `tcp.conn_start` (cwnd after adoption) | "
       << digest.count("tcp.conn_start") << " |\n\n"
       << digest.traces << " traced flows, " << span_events
       << " span events (" << metrics.capture->log.dropped()
       << " dropped); flow arrows: " << digest.arrows_out << " out, "
       << digest.arrows_in << " in, " << digest.arrows_paired
       << " ids paired.\n\n";
    md << "Top span kinds:\n\n| span | count |\n|---|---|\n";
    std::vector<std::pair<std::string, std::size_t>> top(
        digest.by_name.begin(), digest.by_name.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second
                                  : a.first < b.first;
    });
    for (std::size_t i = 0; i < top.size() && i < 12; ++i)
      md << "| `" << top[i].first << "` | " << top[i].second << " |\n";
    md << "\n";
    // The acceptance bar for the whole tracing pillar: a complete chain
    // with paired arrows, ending in an adoption followed by a conn start.
    const bool chain_ok = digest.count("phi.report") > 0 &&
                          digest.count("ctx.aggregate") > 0 &&
                          digest.count("ctx.recommend") > 0 &&
                          digest.count("phi.adopt") > 0 &&
                          digest.count("tcp.conn_start") > 0 &&
                          digest.arrows_paired > 0;
    md << (chain_ok ? "**Chain verified**: all four protocol hops "
                      "present with paired flow arrows.\n\n"
                    : "**Chain incomplete** — see counts above.\n\n");
    if (!chain_ok) chain_rc = 1;

    md << "## Event-loop profile\n\n```\n"
       << metrics.capture->profile.table() << "```\n\n";
  }

  md << "## Time series\n\n"
     << "Full data in `" << ts_path << "` (tidy CSV: series, labels, "
     << "t_s, value).\n\n"
     << "| series | labels | samples | min | max | last |\n"
     << "|---|---|---|---|---|---|\n";
  std::size_t ts_rows = 0;
  telemetry::registry().for_each_timeseries(
      [&](const std::string& sname, const telemetry::Labels& labels,
          const telemetry::TimeSeries& ts) {
        if (ts.size() == 0) return;
        ++ts_rows;
        std::string flat;
        for (const auto& [k, v] : labels)
          flat += (flat.empty() ? "" : ";") + k + "=" + v;
        const auto& v = ts.values();
        double mn = v[0], mx = v[0];
        for (double x : v) {
          mn = std::min(mn, x);
          mx = std::max(mx, x);
        }
        md << "| `" << sname << "` | " << flat << " | " << v.size()
           << " | " << mn << " | " << mx << " | " << v.back() << " |\n";
      });
  if (ts_rows == 0) md << "| (no samples) | | | | | |\n";
  md << "\n";

  {
    auto& fr = telemetry::flight();
    md << "## Flight recorder\n\n"
       << fr.recorded() << " events recorded (ring depth " << fr.depth()
       << " per category). Last events per component:\n\n```\n"
       << fr.dump() << "```\n";
  }

  const std::string body = md.str();
  std::string out_text = body;
  if (html) {
    out_text = "<!doctype html><html><head><meta charset=\"utf-8\">"
               "<title>Phi run report — " + name + "</title></head>"
               "<body><pre>" + html_escape(body) + "</pre></body></html>\n";
  }
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::fwrite(out_text.data(), 1, out_text.size(), f);
  std::fclose(f);

  std::printf("report: %s\n", report_path.c_str());
  std::printf("trace:  %s (%zu events)\n", trace_path.c_str(), span_events);
  std::printf("series: %s (%zu series)\n", ts_path.c_str(), ts_rows);
#ifndef PHI_TELEMETRY_OFF
  if (!artifacts_ok) {
    std::fprintf(stderr, "failed writing artifacts to %s\n", dir.c_str());
    return 1;
  }
#else
  (void)artifacts_ok;
  std::printf("telemetry compiled out (PHI_TELEMETRY_OFF); the report "
              "has headline metrics only\n");
#endif
  bench::dump_metrics("run_report_" + name);
  return chain_rc;
}
