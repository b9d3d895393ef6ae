// units.hpp — simulation time and data-rate units.
//
// All simulation time is integer nanoseconds (`Time`). Integer time gives
// exact event ordering (no floating-point drift) and a range of ~292 years,
// far beyond any experiment horizon. Rates are double bits/second.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace phi::util {

/// Simulation time in nanoseconds since the start of the run.
using Time = std::int64_t;

/// A duration in nanoseconds (same representation as Time).
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

/// Build a Duration from seconds expressed as a double (e.g. 0.15 → 150 ms).
/// Values past the Duration range (about ±292 years) saturate at its ends.
constexpr Duration from_seconds(double s) noexcept {
  const double ns = s * static_cast<double>(kSecond);
  constexpr double kEnd = 0x1p63;  // first double past the int64 range
  if (ns >= kEnd) return std::numeric_limits<Duration>::max();
  if (ns < -kEnd) return std::numeric_limits<Duration>::min();
  return static_cast<Duration>(ns);
}

/// Convert a Duration to fractional seconds.
constexpr double to_seconds(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// Convert a Duration to fractional milliseconds.
constexpr double to_millis(Duration d) noexcept {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

constexpr Duration milliseconds(std::int64_t ms) noexcept { return ms * kMillisecond; }
constexpr Duration microseconds(std::int64_t us) noexcept { return us * kMicrosecond; }
constexpr Duration seconds(std::int64_t s) noexcept { return s * kSecond; }

/// Link / application data rate in bits per second.
using Rate = double;

inline constexpr Rate kBitPerSec = 1.0;
inline constexpr Rate kKbps = 1e3;
inline constexpr Rate kMbps = 1e6;
inline constexpr Rate kGbps = 1e9;

/// Time to serialize `bytes` onto a link of rate `r` bits/sec.
constexpr Duration transmission_time(std::int64_t bytes, Rate r) noexcept {
  return static_cast<Duration>(static_cast<double>(bytes) * 8.0 /
                               r * static_cast<double>(kSecond));
}

/// Bandwidth-delay product in bytes for rate `r` and round-trip `rtt`.
constexpr std::int64_t bdp_bytes(Rate r, Duration rtt) noexcept {
  return static_cast<std::int64_t>(r * to_seconds(rtt) / 8.0);
}

/// Human-readable rendering of a rate, e.g. "15.0 Mbps".
std::string format_rate(Rate r);

/// Human-readable rendering of a duration, e.g. "150 ms" or "5.6 us".
std::string format_duration(Duration d);

}  // namespace phi::util
