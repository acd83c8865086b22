// Fundamental simulation types: time, durations, byte quantities.
//
// The whole simulator runs on a single integer clock with microsecond
// resolution. Using integers (not floating point) keeps event ordering
// exact and runs bit-for-bit reproducible across platforms.
#pragma once

#include <cstdint>

namespace rh::sim {

/// Absolute simulated time in microseconds since simulation start.
using SimTime = std::int64_t;

/// A span of simulated time in microseconds.
using Duration = std::int64_t;

inline constexpr Duration kMicrosecond = 1;
inline constexpr Duration kMillisecond = 1000;
inline constexpr Duration kSecond = 1'000'000;
inline constexpr Duration kMinute = 60 * kSecond;
inline constexpr Duration kHour = 60 * kMinute;
inline constexpr Duration kDay = 24 * kHour;
inline constexpr Duration kWeek = 7 * kDay;

/// Converts a simulated time or duration to seconds (for reporting).
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / kSecond; }

/// Converts seconds to a Duration, rounding to the nearest microsecond.
constexpr Duration from_seconds(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond) + (s >= 0 ? 0.5 : -0.5));
}

/// Byte quantities (memory sizes, disk transfer sizes).
using Bytes = std::int64_t;

inline constexpr Bytes kKiB = 1024;
inline constexpr Bytes kMiB = 1024 * kKiB;
inline constexpr Bytes kGiB = 1024 * kMiB;

/// Size of one machine page frame. Matches x86 (and Xen's) 4 KiB pages.
inline constexpr Bytes kPageSize = 4 * kKiB;

constexpr double to_gib(Bytes b) { return static_cast<double>(b) / static_cast<double>(kGiB); }
constexpr double to_mib(Bytes b) { return static_cast<double>(b) / static_cast<double>(kMiB); }

/// Duration for transferring `size` bytes at `bytes_per_second`.
constexpr Duration transfer_time(Bytes size, double bytes_per_second) {
  return static_cast<Duration>(static_cast<double>(size) / bytes_per_second *
                               static_cast<double>(kSecond));
}

/// Capped exponential backoff: min(cap, base * 2^attempt). Doubling stops
/// at the cap, so no attempt count overflows.
constexpr Duration capped_backoff(Duration base, Duration cap,
                                  std::uint64_t attempt) {
  Duration d = base;
  for (std::uint64_t k = 0; k < attempt && d < cap; ++k) d *= 2;
  return d < cap ? d : cap;
}

}  // namespace rh::sim
