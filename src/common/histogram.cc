#include "common/histogram.h"

#include <algorithm>
#include <bit>

namespace afc {

std::size_t Histogram::bucket_index(std::uint64_t value) {
  if (value < kSubBuckets) return std::size_t(value);
  const int magnitude = std::bit_width(value) - kSubBucketBits;  // >= 1
  const std::uint64_t sub = value >> magnitude;                  // in [kSubBuckets/2? .. kSubBuckets)
  return std::size_t(magnitude) * kSubBuckets + std::size_t(sub);
}

std::uint64_t Histogram::bucket_midpoint(std::size_t index) {
  const std::size_t magnitude = index / kSubBuckets;
  const std::uint64_t sub = index % kSubBuckets;
  if (magnitude == 0) return sub;
  // Bucket covers [sub << magnitude, (sub+1) << magnitude); return midpoint.
  const std::uint64_t lo = sub << magnitude;
  return lo + ((1ull << magnitude) >> 1);
}

void Histogram::cover(std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint64_t> wider;
  if (lo_ == hi_) {
    wider.assign(std::size_t(hi - lo) * kSubBuckets, 0);
  } else {
    if (lo >= lo_ && hi <= hi_) return;
    lo = std::min(lo, lo_);
    hi = std::max(hi, hi_);
    wider.assign(std::size_t(hi - lo) * kSubBuckets, 0);
    std::copy(buckets_.begin(), buckets_.end(),
              wider.begin() + std::ptrdiff_t((lo_ - lo) * kSubBuckets));
  }
  buckets_ = std::move(wider);
  lo_ = lo;
  hi_ = hi;
}

void Histogram::record(std::uint64_t value) { record_n(value, 1); }

void Histogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t i = bucket_index(value);
  const auto group = std::uint32_t(i / kSubBuckets);
  if (group < lo_ || group >= hi_) cover(group, group + 1);
  buckets_[i - lo_ * kSubBuckets] += n;
  count_ += n;
  sum_ += value * n;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != other.hi_) {
    cover(other.lo_, other.hi_);  // a self-merge covers itself: no reallocation
    const std::size_t at = (other.lo_ - lo_) * kSubBuckets;
    for (std::size_t i = 0; i < other.buckets_.size(); i++) buckets_[at + i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

void Histogram::clear() { *this = Histogram(); }

std::uint64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto target = std::uint64_t(q * double(count_ - 1)) + 1;
  // Buckets outside the window are zero, so the first bucket that reaches
  // the target is the same one a scan of all groups would find.
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); i++) {
    seen += buckets_[i];
    if (seen >= target) return bucket_midpoint(lo_ * kSubBuckets + i);
  }
  return max_;
}

}  // namespace afc
