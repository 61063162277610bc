#pragma once

#include <cstdint>
#include <map>

namespace afc::store {

/// Block-granular free-space manager for the raw data SSD: a sorted map of
/// free runs (offset → length), first-fit allocation, and coalescing free.
/// Host-side bookkeeping only — the caller charges allocation CPU and the
/// device writes. Never hard-fails: when the pool is exhausted (the model's
/// device_bytes is a working-set bound, not a capacity simulation) it hands
/// out monotonically growing offsets past the pool end, so a long bench
/// degrades gracefully instead of wedging I/O.
class ExtentAllocator {
 public:
  ExtentAllocator(std::uint64_t pool_bytes, std::uint64_t block_size);

  std::uint64_t block_size() const { return block_size_; }

  /// Allocate one contiguous run of `len` bytes (rounded up to blocks).
  /// Returns its device offset.
  std::uint64_t allocate(std::uint64_t len);

  /// Return [off, off+len) to the pool (rounded up to blocks), merging with
  /// free neighbours. Overcommitted (past-pool) runs are dropped silently.
  void free(std::uint64_t off, std::uint64_t len);

 private:
  std::uint64_t round_up(std::uint64_t len) const {
    return (len + block_size_ - 1) / block_size_ * block_size_;
  }

  std::uint64_t pool_bytes_;
  std::uint64_t block_size_;
  std::map<std::uint64_t, std::uint64_t> free_;  // offset -> run length
  std::uint64_t overcommit_pos_;
};

}  // namespace afc::store
