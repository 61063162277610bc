#pragma once

#include <cstdint>
#include <cmath>

namespace afc {

/// Deterministic xoshiro256++ PRNG. Each simulated component owns its own
/// seeded stream so runs are reproducible regardless of scheduling order.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Zipf-distributed rank in [0, n) with exponent theta (0 = uniform).
  /// The normalization for each (n, theta) is computed once per process
  /// and shared by every Rng; draws depend only on this stream.
  std::uint64_t zipf(std::uint64_t n, double theta);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-component seeding).
  Rng fork();

 private:
  struct ZipfConstants;
  /// The process-wide constants for (n, theta), computed on first use.
  static const ZipfConstants& zipf_constants(std::uint64_t n, double theta);

  std::uint64_t s_[4];
  const ZipfConstants* zipf_ = nullptr;  // the (n, theta) of the last draw
};

}  // namespace afc
