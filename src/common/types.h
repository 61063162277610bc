#pragma once

#include <cstdint>

namespace afc {

/// Virtual time in nanoseconds. All simulated clocks use this unit.
using Time = std::uint64_t;

inline constexpr Time kNanosecond = 1;
inline constexpr Time kMicrosecond = 1000;
inline constexpr Time kMillisecond = 1000 * 1000;
inline constexpr Time kSecond = 1000ull * 1000 * 1000;

/// Convert virtual time to floating-point units for reporting.
constexpr double to_ms(Time t) { return double(t) / double(kMillisecond); }
constexpr double to_s(Time t) { return double(t) / double(kSecond); }

inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * 1024;
inline constexpr std::uint64_t kGiB = 1024ull * 1024 * 1024;

}  // namespace afc
