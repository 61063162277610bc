#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/byte_arena.h"

namespace afc {

/// String interning table: maps repeated strings (log format templates,
/// trace stage names, object names) to small dense ids so hot paths carry a
/// 4-byte handle instead of a heap string. This is the "log cache"
/// mechanism of the paper's non-blocking logging (§3.3): once a log
/// template is interned, emitting it again costs a hash lookup instead of a
/// string construction.
///
/// Append-only. The bytes of every string sit in a ByteArena, so a view
/// returned by lookup() stays valid for the pool's lifetime. An
/// open-addressing index (linear probing, power-of-two size) maps bytes to
/// ids; each record caches std::hash<std::string_view> of its bytes, so
/// hash(id) costs no rehash. Lookups take a string_view and build no
/// std::string. Not thread-safe: callers that share a pool across threads
/// lock around it.
class InternPool {
 public:
  using Id = std::uint32_t;

  /// Intern `s`, returning a stable id. Idempotent.
  Id intern(std::string_view s);

  /// Look up without inserting; returns true and sets `id` on hit.
  bool find(std::string_view s, Id& id) const;

  std::string_view lookup(Id id) const { return records_[id].bytes; }
  /// std::hash<std::string_view> of the bytes of `id` (equal to
  /// std::hash<std::string> of the same bytes).
  std::size_t hash(Id id) const { return records_[id].hash; }
  std::size_t size() const { return records_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr Id kNil = ~Id(0);

  struct Record {
    std::size_t hash;
    std::string_view bytes;  // in arena_
  };

  /// The slot holding `s`, or the empty slot that ends its probe run.
  std::size_t probe(std::string_view s, std::size_t h) const;
  void grow_index();

  ByteArena arena_{64 * 1024};
  std::vector<Record> records_;
  std::vector<Id> slots_;   // record ids; kNil: empty
  std::size_t mask_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace afc
