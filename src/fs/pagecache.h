#pragma once

#include <cstdint>

#include "common/lru_set.h"

namespace afc::fs {

/// LRU page cache over 4 KiB pages keyed by (object hash, page index).
/// Models the kernel page cache + dentry/inode caches of the OSD's local
/// filesystem: reads that hit cost no device I/O, and capacity decides
/// whether a "clean" small-image run stays in memory while a "sustained"
/// 80%-full run thrashes — exactly the split that makes community Ceph look
/// better in Fig. 9 (clean) than in Fig. 10 (sustained).
class PageCache {
 public:
  explicit PageCache(std::size_t capacity_pages) : pages_(capacity_pages) {}

  static constexpr std::uint64_t kPageSize = 4096;

  /// True (and refreshed) if the page is resident.
  bool lookup(std::uint64_t object_hash, std::uint64_t page);

  /// Insert / refresh a page (write-through or read fill).
  void insert(std::uint64_t object_hash, std::uint64_t page) { pages_.insert(object_hash, page); }

  /// Lookup helper over a byte range; returns the number of *missing* pages.
  /// Does not refresh resident pages.
  std::uint64_t missing_pages(std::uint64_t object_hash, std::uint64_t offset,
                              std::uint64_t len) const;
  void insert_range(std::uint64_t object_hash, std::uint64_t offset, std::uint64_t len);

  std::size_t size() const { return pages_.size(); }
  std::size_t capacity() const { return pages_.capacity(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  LruSet pages_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace afc::fs
