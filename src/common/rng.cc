#include "common/rng.h"

#include <map>
#include <mutex>
#include <utility>

namespace afc {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // Avoid the all-zero state (splitmix makes this vanishingly unlikely, but
  // a zero seed chain must still work).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return double(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + next() % span;
}

double Rng::exponential(double mean) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

/// Everything a zipf draw needs that depends only on (n, theta).
struct Rng::ZipfConstants {
  std::uint64_t n;
  double theta;
  double zeta;   // sum of i^-theta for i in [1, n]
  double alpha;  // 1 / (1 - theta)
  double eta;
  double second;  // 1 + 0.5^theta: below it (times zeta) the draw is rank 1
};

std::uint64_t Rng::zipf(std::uint64_t n, double theta) {
  if (n <= 1) return 0;
  if (theta <= 0.0) return uniform_int(0, n - 1);
  if (zipf_ == nullptr || zipf_->n != n || zipf_->theta != theta) zipf_ = &zipf_constants(n, theta);
  // Inverse-CDF by linear walk would be O(n); use the standard rejection-free
  // approximation (Gray et al.) good enough for workload skew.
  const ZipfConstants& z = *zipf_;
  const double u = uniform();
  const double uz = u * z.zeta;
  if (uz < 1.0) return 0;
  if (uz < z.second) return 1;
  auto v = std::uint64_t(double(n) * std::pow(z.eta * u - z.eta + 1.0, z.alpha));
  if (v >= n) v = n - 1;
  return v;
}

// One table for the process: zeta(n, theta) is an O(n) sum (5.24M pow
// terms for a 20 GiB image), so each (n, theta) is summed once however many
// streams draw from it. Entries are never erased, so a pointer to one stays
// valid. The arithmetic is the per-draw formula's, so draws are unchanged.
const Rng::ZipfConstants& Rng::zipf_constants(std::uint64_t n, double theta) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>, ZipfConstants> table;
  std::lock_guard lk(mu);
  auto [it, inserted] = table.try_emplace({n, theta});
  ZipfConstants& z = it->second;
  if (inserted) {
    double zeta = 0.0;
    for (std::uint64_t i = 1; i <= n; i++) zeta += 1.0 / std::pow(double(i), theta);
    z.n = n;
    z.theta = theta;
    z.zeta = zeta;
    z.alpha = 1.0 / (1.0 - theta);
    z.eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
            (1.0 - (1.0 / std::pow(2.0, theta)) / zeta);
    z.second = 1.0 + std::pow(0.5, theta);
  }
  return z;
}

Rng Rng::fork() {
  return Rng(next() ^ 0xa0761d6478bd642full);
}

}  // namespace afc
