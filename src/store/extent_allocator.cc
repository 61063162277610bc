#include "store/extent_allocator.h"

namespace afc::store {

ExtentAllocator::ExtentAllocator(std::uint64_t pool_bytes, std::uint64_t block_size)
    : pool_bytes_(pool_bytes / block_size * block_size),
      block_size_(block_size),
      overcommit_pos_(pool_bytes_) {
  if (pool_bytes_ > 0) free_.emplace(0, pool_bytes_);
}

std::uint64_t ExtentAllocator::allocate(std::uint64_t len) {
  const std::uint64_t need = round_up(len == 0 ? block_size_ : len);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < need) continue;
    const std::uint64_t off = it->first;
    const std::uint64_t run = it->second;
    free_.erase(it);
    if (run > need) free_.emplace(off + need, run - need);
    return off;
  }
  // Pool exhausted (or too fragmented for a contiguous run): overcommit.
  const std::uint64_t off = overcommit_pos_;
  overcommit_pos_ += need;
  return off;
}

void ExtentAllocator::free(std::uint64_t off, std::uint64_t len) {
  const std::uint64_t bytes = round_up(len == 0 ? block_size_ : len);
  if (off >= pool_bytes_) return;  // overcommitted run: not pool-managed
  std::uint64_t start = off;
  std::uint64_t end = off + bytes;
  auto next = free_.lower_bound(start);
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second >= start) {
      start = prev->first;
      end = end > prev->first + prev->second ? end : prev->first + prev->second;
      free_.erase(prev);
    }
  }
  while (next != free_.end() && next->first <= end) {
    end = end > next->first + next->second ? end : next->first + next->second;
    next = free_.erase(next);
  }
  free_.emplace(start, end - start);
}

}  // namespace afc::store
