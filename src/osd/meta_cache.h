#pragma once

#include <cstdint>
#include <optional>

#include "common/lru_map.h"
#include "fs/transaction.h"

namespace afc::osd {

/// Cached object metadata (object_info + snapset digest) consulted on every
/// OSD op before touching the filestore.
struct ObjectMeta {
  bool exists = false;
  std::uint64_t size = 0;
  std::uint64_t version = 0;
};

/// The OSD-level object metadata cache.
///
/// *Community mode* (read-through LRU): bounded capacity; a miss forces the
/// write path to read metadata from storage (read-modify-write), injecting
/// reads into the SSD's write stream — §3.4's central problem.
///
/// *Write-through authoritative mode* (AFCeph): every write updates the
/// cache, capacity covers the working set ("10 TB needs 2.5 GB"), and a miss
/// is authoritative (the object state is synthesized with no device read);
/// the write path never reads.
///
/// A flat LruMap: each entry holds its ObjectId once, and a lookup matches
/// the exact identity (pg and name).
class MetaCache {
 public:
  struct Config {
    std::size_t capacity = 8192;
    bool writethrough_authoritative = false;
  };

  explicit MetaCache(const Config& cfg) : cfg_(cfg), map_(cfg.capacity) {}

  /// The cached metadata, now the most recently used; counts a hit or a miss.
  std::optional<ObjectMeta> lookup(const fs::ObjectId& oid) {
    const ObjectMeta* meta = map_.touch(oid);
    if (meta == nullptr) {
      misses_++;
      return std::nullopt;
    }
    hits_++;
    return *meta;
  }
  void insert(const fs::ObjectId& oid, const ObjectMeta& meta) { map_.insert(oid, meta); }
  void invalidate(const fs::ObjectId& oid) { map_.erase(oid); }

  bool authoritative() const { return cfg_.writethrough_authoritative; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  Config cfg_;
  LruMap<fs::ObjectId, ObjectMeta, fs::ObjectIdHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace afc::osd
