#pragma once

#include <cstddef>
#include <cstdint>

#include "common/lru_map.h"

namespace afc {

/// Bounded LRU set of (u64, u64) keys — the page cache's (object, page) and
/// the KV block cache's (table, block). An LruMap with an empty value, so a
/// resident key costs 24 bytes of node plus its index slot.
class LruSet {
 public:
  explicit LruSet(std::size_t capacity) : map_(capacity) {}

  /// True if the key is resident; a hit becomes the most recently used.
  bool touch(std::uint64_t a, std::uint64_t b) { return map_.touch(Key{a, b}) != nullptr; }

  /// Residency test that leaves the recency order alone.
  bool contains(std::uint64_t a, std::uint64_t b) const { return map_.contains(Key{a, b}); }

  /// Make the key resident and most recently used. When the set is full the
  /// least recently used key is evicted first; with capacity 0 nothing stays.
  void insert(std::uint64_t a, std::uint64_t b) { map_.insert(Key{a, b}, None{}); }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return map_.capacity(); }

 private:
  struct Key {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::uint32_t operator()(const Key& k) const {
      std::uint64_t h = (k.a * 0x9e3779b97f4a7c15ull) ^ k.b;
      h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ull;
      return std::uint32_t(h ^ (h >> 29));
    }
  };
  struct None {};

  LruMap<Key, None, KeyHash> map_;
};

}  // namespace afc
