#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "kv/memtable.h"

namespace afc::kv {

/// Blocked bloom filter over keys (k=4 hash probes). Sized at build time to
/// ~10 bits/key for a ~1% false-positive rate, like LevelDB's filter block.
class BloomFilter {
 public:
  explicit BloomFilter(std::size_t expected_keys);

  void add(std::string_view key);
  bool may_contain(std::string_view key) const;
  std::size_t bits() const { return bits_.size() * 64; }

 private:
  std::uint64_t probe_mask(std::string_view key, int i) const;
  std::vector<std::uint64_t> bits_;
};

/// Immutable sorted run. Entry payloads live in memory (the simulator's
/// "disk"), but every read through SSTable::get charges one data-block read
/// to the owning DB's device unless the block cache hits.
class SsTable {
 public:
  /// Build from sorted, de-duplicated entries.
  SsTable(std::uint64_t id, int level, std::vector<Entry> entries);

  std::uint64_t id() const { return id_; }
  int level() const { return level_; }
  std::uint64_t data_bytes() const { return data_bytes_; }
  const std::string& min_key() const { return min_key_; }
  const std::string& max_key() const { return max_key_; }

  bool key_in_range(std::string_view key) const {
    return !entries_.empty() && key >= min_key_ && key <= max_key_;
  }
  bool overlaps(std::string_view lo, std::string_view hi) const {
    return !entries_.empty() && !(max_key_ < lo) && !(min_key_ > hi);
  }

  /// Bloom-negative lookups return {nullptr, false} with no I/O; otherwise
  /// {entry-or-null, true} and the caller charges a block read.
  struct Lookup {
    const Entry* entry;
    bool block_touched;
  };
  Lookup get(std::string_view key) const;

  /// Index of the data block containing `key` (for block-cache keys).
  std::uint64_t block_of(std::string_view key) const;

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::uint64_t id_;
  int level_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> block_offsets_;  // entry index per 4 KiB block
  BloomFilter bloom_;
  std::uint64_t data_bytes_ = 0;
  std::string min_key_;
  std::string max_key_;
};

/// K-way merge of sorted entry runs, newest run first: later (older)
/// duplicates are dropped; tombstones are dropped only when `drop_deletes`
/// (bottom-level compaction).
std::vector<Entry> merge_runs(std::vector<const std::vector<Entry>*> newest_first,
                              bool drop_deletes);

}  // namespace afc::kv
