#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace afc::kv {

/// A value that is either real bytes (tested for correctness) or a virtual
/// length (bulk PG-log traffic in benchmarks) — both cost the same simulated
/// device bytes.
struct Value {
  std::string data;
  std::uint32_t virtual_len = 0;

  static Value real(std::string d) { return Value{std::move(d), 0}; }
  static Value virt(std::uint32_t len) { return Value{{}, len}; }

  bool is_virtual() const { return data.empty() && virtual_len != 0; }
  std::uint64_t size() const { return is_virtual() ? virtual_len : data.size(); }
  bool operator==(const Value& o) const = default;
};

enum class EntryType : std::uint8_t { kPut, kDelete };

struct Entry {
  std::string key;
  Value value;
  std::uint64_t seq = 0;
  EntryType type = EntryType::kPut;

  std::uint64_t encoded_size() const { return key.size() + value.size() + 16; }
};

/// Memtable: newest write wins in place (the DB layer has no MVCC readers,
/// so keeping only the latest version per key is equivalent and cheaper).
/// Tombstones are retained for correct merge with older SSTables.
///
/// Entries live in fixed-size chunks in insertion order, so their addresses
/// never change. An open-addressing hash index over each entry's own key
/// serves put / get / del with one probe sequence. Key order is built only
/// when asked for (dump, seek, next): the entries added since the last such
/// call are sorted and merged into a cached sorted view.
class MemTable {
 public:
  /// `seed` is ignored — the table has no randomness. It stays so callers
  /// that pass one keep compiling.
  explicit MemTable(std::uint64_t /*seed*/ = 1) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;
  MemTable(MemTable&&) noexcept = default;
  MemTable& operator=(MemTable&&) noexcept = default;

  void put(std::string_view key, Value v, std::uint64_t seq);
  void del(std::string_view key, std::uint64_t seq);

  /// Latest entry for key, or nullptr (tombstones are returned too —
  /// caller distinguishes via Entry::type).
  const Entry* get(std::string_view key) const;

  /// All entries in key order (for flush / iteration).
  std::vector<Entry> dump() const;

  /// First entry with key >= `from`; advance with next(). Returns nullptr
  /// at the end.
  const Entry* seek(std::string_view from) const;
  const Entry* next(const Entry* e) const;

  std::uint64_t approximate_bytes() const { return bytes_; }
  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t(0);
  static constexpr unsigned kChunkBits = 8;  // 256 entries per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  struct Slot {
    std::uint32_t entry = kNil;  // kNil: empty
    std::uint32_t hash = 0;      // home slot is hash & mask_
  };

  Entry& at(std::uint32_t i) const { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  /// The slot holding `key`, or the empty slot that ends its probe run.
  std::size_t probe(std::string_view key, std::uint32_t h) const;
  /// The entry for `key`, appended (empty, unaccounted) if it is new.
  Entry& find_or_append(std::string_view key, bool& appended);
  void write(std::string_view key, Value v, std::uint64_t seq, EntryType type);
  void grow_index();
  /// Merge the entries appended since the last call into sorted_.
  void sort_pending() const;

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  mutable std::vector<std::uint32_t> sorted_;  // entries [0, sorted_.size()) in key order
  std::uint64_t bytes_ = 0;
  std::size_t count_ = 0;
};

}  // namespace afc::kv
