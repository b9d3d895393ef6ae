// bench_common.hpp — shared plumbing for the paper-reproduction benches:
// quick/full scaling via PHI_BENCH_SCALE, CSV dumps via PHI_BENCH_OUT,
// and wall-clock reporting.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/telemetry.hpp"
#include "util/table.hpp"

namespace phi::bench {

enum class Scale { kQuick, kFull };

/// PHI_BENCH_SCALE=full selects the paper-sized grids/run counts;
/// the default "quick" keeps every bench in tens of seconds on one core.
/// Anything else is a typo that would otherwise silently run quick (and
/// ruin an overnight "ful" run), so it aborts loudly instead.
inline Scale scale_from_env() {
  const char* s = std::getenv("PHI_BENCH_SCALE");
  if (s == nullptr || *s == '\0' || std::string(s) == "quick")
    return Scale::kQuick;
  if (std::string(s) == "full") return Scale::kFull;
  std::fprintf(stderr,
               "PHI_BENCH_SCALE='%s' is not recognized; use 'quick' or "
               "'full' (unset defaults to quick)\n",
               s);
  std::exit(2);
}

inline const char* scale_name(Scale s) {
  return s == Scale::kFull ? "full" : "quick";
}

/// PHI_BENCH_JOBS caps the parallelism of every bench that runs
/// independent simulations (sweeps, repetitions, trainer evaluations):
/// unset or 0 = one job per usable CPU, 1 = serial. Results are
/// bit-identical for any value — the exec::Pool contract — so this knob
/// only trades wall-clock against the rest of the machine. Non-numeric
/// or negative values abort loudly rather than silently meaning 0.
inline int jobs_from_env() {
  const char* j = std::getenv("PHI_BENCH_JOBS");
  if (j == nullptr || *j == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(j, &end, 10);
  if (end == j || *end != '\0' || v < 0 || v > 4096) {
    std::fprintf(stderr,
                 "PHI_BENCH_JOBS='%s' is not a job count; use an integer "
                 ">= 0 (0 or unset = one job per usable CPU)\n",
                 j);
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// Directory for CSV artifacts; PHI_BENCH_OUT overrides, empty disables.
inline std::string out_dir() {
  const char* o = std::getenv("PHI_BENCH_OUT");
  std::string dir = o != nullptr ? o : "bench_results";
  if (dir.empty()) return dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return ec ? std::string{} : dir;
}

inline void write_csv(const std::string& name,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<std::string>>& rows) {
  const std::string dir = out_dir();
  if (dir.empty()) return;
  const std::string path = dir + "/" + name;
  if (util::write_csv(path, header, rows)) {
    std::printf("  [csv] %s (%zu rows)\n", path.c_str(), rows.size());
  }
}

/// Percentile of a sample set (nearest-rank on a copy; p in [0, 100]).
/// The common reporting primitive the per-bench helpers used to re-derive.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const auto idx = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Console table + CSV artifact fed from one row stream — replaces the
/// parallel util::TextTable and raw csv-row vectors every bench used to
/// maintain by hand. `row()` takes the display cells; pass distinct
/// `csv` cells when the artifact wants different units/precision than
/// the console (the common case: "1.0 %" on screen, "0.010" on disk).
class ResultTable {
 public:
  ResultTable(std::string csv_name, std::vector<std::string> header,
              std::vector<std::string> csv_header = {})
      : csv_name_(std::move(csv_name)),
        csv_header_(csv_header.empty() ? header : std::move(csv_header)) {
    table_.header(std::move(header));
  }

  void row(std::vector<std::string> display,
           std::vector<std::string> csv = {}) {
    csv_rows_.push_back(csv.empty() ? display : std::move(csv));
    table_.row(std::move(display));
  }

  /// Print the aligned table and write the CSV artifact (if enabled).
  void print_and_dump() const {
    std::printf("\n%s", table_.str().c_str());
    write_csv(csv_name_, csv_header_, csv_rows_);
  }

  std::size_t rows() const noexcept { return table_.rows(); }

 private:
  std::string csv_name_;
  std::vector<std::string> csv_header_;
  util::TextTable table_;
  std::vector<std::vector<std::string>> csv_rows_;
};

/// Peak resident-set size of this process so far, in bytes (Linux
/// reports ru_maxrss in KiB). 0 when the kernel won't say.
inline long long peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<long long>(ru.ru_maxrss) * 1024;
}

namespace detail {
/// Extra run-provenance entries for the _run.json sidecar, keyed by
/// name; values are raw JSON (object, array, string — caller's choice).
inline std::vector<std::pair<std::string, std::string>>& run_info() {
  static std::vector<std::pair<std::string, std::string>> v;
  return v;
}
}  // namespace detail

/// Attach one entry to the `info` object of the _run.json sidecar that
/// dump_metrics writes. `raw_json_value` is embedded verbatim (so pass
/// valid JSON: "\"text\"", a number, or an object). Repeated keys:
/// last call wins. The sidecar is provenance, not a compared artifact,
/// so run-shape details (e.g. the generated topology) belong here.
inline void set_run_info(const std::string& key,
                         const std::string& raw_json_value) {
  for (auto& kv : detail::run_info()) {
    if (kv.first == key) {
      kv.second = raw_json_value;
      return;
    }
  }
  detail::run_info().emplace_back(key, raw_json_value);
}

namespace detail {
/// Static-init anchor: lets dump_metrics report a "total" phase for
/// benches that never mark explicit phases.
inline const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

struct PhaseAccum {
  std::vector<std::pair<std::string, double>> done;
  std::string current;
  std::chrono::steady_clock::time_point started;
};
inline PhaseAccum& phase_accum() {
  static PhaseAccum a;
  return a;
}
}  // namespace detail

/// Begin (or switch to) a named wall-clock phase — "setup", "run",
/// "export" by convention. dump_metrics() closes the open phase and
/// writes every phase's duration into the _run.json sidecar, so a slow
/// bench shows where the wall-clock went without a profiler.
inline void phase(const char* name) {
  auto& a = detail::phase_accum();
  const auto now = std::chrono::steady_clock::now();
  if (!a.current.empty()) {
    a.done.emplace_back(
        a.current, std::chrono::duration<double>(now - a.started).count());
  }
  a.current = name != nullptr ? name : "";
  a.started = now;
}

/// Dump the global metric registry next to the CSV artifacts as
/// `<bench>_metrics.json` (plus the Prometheus text form). Call once at
/// the end of a bench so every ablation leaves a uniform machine-readable
/// record of what the simulation actually did (packets, drops,
/// retransmits, faults fired, ...). Compiled-out telemetry still writes
/// the (empty) artifacts, so downstream tooling never misses a file.
inline void dump_metrics(const std::string& bench_name) {
  const std::string dir = out_dir();
  if (dir.empty()) return;
  const std::string json = dir + "/" + bench_name + "_metrics.json";
  const std::string prom = dir + "/" + bench_name + "_metrics.prom";
  if (telemetry::registry().write_json(json) &&
      telemetry::registry().write_prometheus(prom)) {
    std::printf("  [metrics] %s (+ .prom)\n", json.c_str());
  }
  // Run provenance goes in a sidecar, NOT into the metrics/CSV artifacts:
  // those must stay byte-identical across jobs values (the determinism
  // check diffs them), while the sidecar records how this run was made.
  std::FILE* f = std::fopen((dir + "/" + bench_name + "_run.json").c_str(),
                            "w");
  if (f != nullptr) {
    // Both the resolved settings and the raw environment values (the
    // latter are validated at startup, so they embed safely).
    const char* scale_env = std::getenv("PHI_BENCH_SCALE");
    const char* jobs_env = std::getenv("PHI_BENCH_JOBS");
    std::fprintf(f,
                 "{\"bench\":\"%s\",\"scale\":\"%s\",\"jobs\":%d,"
                 "\"scale_env\":\"%s\",\"jobs_env\":\"%s\"",
                 bench_name.c_str(), scale_name(scale_from_env()),
                 jobs_from_env(), scale_env != nullptr ? scale_env : "",
                 jobs_env != nullptr ? jobs_env : "");
    // Close the open phase (if any) and record where the wall-clock
    // went, plus the process's memory high-water mark. Benches that
    // never mark phases still get a "total" since process start.
    phase(nullptr);
    auto& phases = detail::phase_accum().done;
    if (phases.empty()) {
      phases.emplace_back(
          "total", std::chrono::duration<double>(
                       std::chrono::steady_clock::now() -
                       detail::g_process_start)
                       .count());
    }
    std::fprintf(f, ",\"phases\":{");
    for (std::size_t i = 0; i < phases.size(); ++i) {
      std::fprintf(f, "%s\"%s\":%.3f", i > 0 ? "," : "",
                   phases[i].first.c_str(), phases[i].second);
    }
    std::fprintf(f, "},\"peak_rss_bytes\":%lld", peak_rss_bytes());
    const auto& info = detail::run_info();
    if (!info.empty()) {
      std::fprintf(f, ",\"info\":{");
      for (std::size_t i = 0; i < info.size(); ++i) {
        std::fprintf(f, "%s\"%s\":%s", i > 0 ? "," : "",
                     info[i].first.c_str(), info[i].second.c_str());
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void banner(const char* title) {
  std::printf("\n================================================================\n"
              "%s   [scale=%s jobs=%d]\n"
              "================================================================\n",
              title, scale_name(scale_from_env()), jobs_from_env());
}

}  // namespace phi::bench
