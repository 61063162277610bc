#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace afc {

/// Log-linear latency histogram (HdrHistogram-style): values are bucketed
/// into power-of-two magnitude groups, each split into `kSubBuckets` linear
/// sub-buckets, giving ~1.5% relative error across the full 64-bit range.
/// Used for all latency reporting.
///
/// Storage holds only the window [lo_, hi_) of whole 64-bucket groups
/// between the smallest and largest magnitude recorded (512 bytes per
/// group, at most 59 groups or 29.5 KiB), grown on demand. A histogram that
/// never records allocates nothing, so the many per-OSD and per-device
/// histograms a workload never touches cost only the object itself.
class Histogram {
 public:
  void record(std::uint64_t value);
  void record_n(std::uint64_t value, std::uint64_t count);
  void merge(const Histogram& other);
  /// Forget every value and release the storage.
  void clear();

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

  /// Value at the given quantile in [0, 1]; representative bucket midpoint.
  std::uint64_t percentile(double q) const;

  double mean_ms() const { return mean() / double(kMillisecond); }
  double p50_ms() const { return double(percentile(0.50)) / double(kMillisecond); }
  double p99_ms() const { return double(percentile(0.99)) / double(kMillisecond); }

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per magnitude
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_midpoint(std::size_t index);
  /// Widen the stored window to include groups [lo, hi).
  void cover(std::uint32_t lo, std::uint32_t hi);

  std::vector<std::uint64_t> buckets_;  // bucket i at buckets_[i - lo_ * kSubBuckets]
  std::uint32_t lo_ = 0;                // stored groups [lo_, hi_); empty when equal
  std::uint32_t hi_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

}  // namespace afc
