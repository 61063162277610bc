#include "fs/pagecache.h"

namespace afc::fs {

bool PageCache::lookup(std::uint64_t object_hash, std::uint64_t page) {
  if (pages_.touch(object_hash, page)) {
    hits_++;
    return true;
  }
  misses_++;
  return false;
}

std::uint64_t PageCache::missing_pages(std::uint64_t object_hash, std::uint64_t offset,
                                       std::uint64_t len) const {
  if (len == 0) return 0;
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  std::uint64_t missing = 0;
  for (std::uint64_t p = first; p <= last; p++) {
    if (!pages_.contains(object_hash, p)) missing++;
  }
  return missing;
}

void PageCache::insert_range(std::uint64_t object_hash, std::uint64_t offset,
                             std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = offset / kPageSize;
  const std::uint64_t last = (offset + len - 1) / kPageSize;
  for (std::uint64_t p = first; p <= last; p++) insert(object_hash, p);
}

}  // namespace afc::fs
