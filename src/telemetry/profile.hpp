// profile.hpp — event-loop self-profiling. A LoopProfile is attached to
// a sim::Scheduler (Scheduler::set_profile) and accounts where
// run_until spends its wall-clock time, split by event-loop section:
// timing-wheel advance/scan, packet deliveries, tx-complete events, and
// scheduled callbacks (TCP timers, apps, probes). Event counts are
// exact; wall-clock is *sampled* — one event or wheel advance in
// kSampleStride is timed with steady_clock — so the measurement itself
// stays cheap enough to leave on during benchmarks. Wall-clock never
// feeds back into simulated time, so profiling cannot perturb results.
//
// Under PHI_TELEMETRY_OFF the class is a stub and the scheduler hook
// compiles out.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace phi::telemetry {

#ifndef PHI_TELEMETRY_OFF

/// Monotonic wall-clock nanoseconds for profiling sections.
inline std::uint64_t profile_clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LoopProfile {
 public:
  enum Section : unsigned {
    kWheelAdvance = 0,  ///< wheel bitmap scans, cascades, run-buffer fill
    kDelivery,          ///< packet deliveries
    kTxComplete,        ///< serialization-complete events
    kCallback,          ///< SmallFn callbacks: TCP timers, apps, probes
    kSectionCount
  };

  /// Time 1 in kSampleStride events; scale sampled time by the stride
  /// to estimate totals.
  static constexpr std::uint32_t kSampleStride = 16;

  static const char* section_name(unsigned s) noexcept;

  /// Exact event count for `s` (called on every event).
  void count(unsigned s, std::uint64_t n = 1) noexcept { events_[s] += n; }

  /// Sampling gate: true when this event should be wall-clock timed.
  bool gate() noexcept { return (++tick_ % kSampleStride) == 0; }

  /// Credit `ns` of sampled wall-clock covering `n` events to `s`.
  void add_time(unsigned s, std::uint64_t ns, std::uint64_t n = 1) noexcept {
    ns_[s] += ns;
    sampled_[s] += n;
  }

  /// Total wall-clock of the run_until calls themselves (always timed —
  /// one clock pair per call, not per event).
  void add_wall(std::uint64_t ns) noexcept { wall_ns_ += ns; }

  std::uint64_t events(unsigned s) const noexcept { return events_[s]; }
  std::uint64_t sampled(unsigned s) const noexcept { return sampled_[s]; }
  std::uint64_t sampled_ns(unsigned s) const noexcept { return ns_[s]; }
  std::uint64_t wall_ns() const noexcept { return wall_ns_; }

  /// Fold another profile in (counts and times add) — lets parallel
  /// reps aggregate into one table.
  void merge(const LoopProfile& o) noexcept {
    for (unsigned s = 0; s < kSectionCount; ++s) {
      events_[s] += o.events_[s];
      sampled_[s] += o.sampled_[s];
      ns_[s] += o.ns_[s];
    }
    wall_ns_ += o.wall_ns_;
  }

  void reset() noexcept {
    for (unsigned s = 0; s < kSectionCount; ++s) {
      events_[s] = sampled_[s] = ns_[s] = 0;
    }
    wall_ns_ = 0;
    tick_ = 0;
  }

  /// Human-readable breakdown: per section, exact event count, sampled
  /// time, estimated ns/event, and share of sampled time.
  std::string table() const;

 private:
  std::uint64_t events_[kSectionCount] = {};
  std::uint64_t sampled_[kSectionCount] = {};
  std::uint64_t ns_[kSectionCount] = {};
  std::uint64_t wall_ns_ = 0;
  std::uint32_t tick_ = 0;
};

#else  // PHI_TELEMETRY_OFF

inline std::uint64_t profile_clock_ns() noexcept { return 0; }

class LoopProfile {
 public:
  enum Section : unsigned {
    kWheelAdvance = 0,
    kDelivery,
    kTxComplete,
    kCallback,
    kSectionCount
  };
  static constexpr std::uint32_t kSampleStride = 16;
  static const char* section_name(unsigned) noexcept { return ""; }
  void count(unsigned, std::uint64_t = 1) noexcept {}
  bool gate() noexcept { return false; }
  void add_time(unsigned, std::uint64_t, std::uint64_t = 1) noexcept {}
  void add_wall(std::uint64_t) noexcept {}
  std::uint64_t events(unsigned) const noexcept { return 0; }
  std::uint64_t sampled(unsigned) const noexcept { return 0; }
  std::uint64_t sampled_ns(unsigned) const noexcept { return 0; }
  std::uint64_t wall_ns() const noexcept { return 0; }
  void merge(const LoopProfile&) noexcept {}
  void reset() noexcept {}
  std::string table() const { return {}; }
};

#endif  // PHI_TELEMETRY_OFF

}  // namespace phi::telemetry
