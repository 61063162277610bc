#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/byte_arena.h"
#include "common/probe_table.h"

namespace afc::kv {

/// A value that is either real bytes (tested for correctness) or a virtual
/// length (bulk PG-log traffic in benchmarks) — both cost the same simulated
/// device bytes.
///
/// An immutable 16-byte value type on Payload's scheme: real bytes live in
/// one shared, reference-counted block, so copying a value never copies
/// them. Equality compares content.
class Value {
 public:
  Value() = default;
  Value(const Value& o) : virtual_len_(o.virtual_len_), bytes_(o.bytes_) {
    if (bytes_ != nullptr) bytes_->refs++;
  }
  Value(Value&& o) noexcept
      : virtual_len_(o.virtual_len_), bytes_(std::exchange(o.bytes_, nullptr)) {}
  Value& operator=(Value o) noexcept {
    std::swap(virtual_len_, o.virtual_len_);
    std::swap(bytes_, o.bytes_);
    return *this;
  }
  ~Value() {
    if (bytes_ != nullptr && --bytes_->refs == 0) ::operator delete(bytes_);
  }

  static Value real(std::string_view d);
  static Value virt(std::uint32_t len) {
    Value v;
    v.virtual_len_ = len;
    return v;
  }

  bool is_virtual() const { return bytes_ == nullptr && virtual_len_ != 0; }
  std::uint64_t size() const { return bytes_ != nullptr ? bytes_->len : virtual_len_; }
  std::uint32_t virtual_len() const { return virtual_len_; }
  /// The real bytes; empty for a virtual value.
  std::string_view data() const {
    if (bytes_ == nullptr) return {};
    return {reinterpret_cast<const char*>(bytes_ + 1), bytes_->len};
  }
  bool operator==(const Value& o) const {
    return virtual_len_ == o.virtual_len_ && (bytes_ == o.bytes_ || data() == o.data());
  }

 private:
  /// Header of the shared block; the bytes follow it. The simulator is
  /// single-threaded, so the count is a plain integer.
  struct Bytes {
    std::uint32_t refs;
    std::uint32_t len;
  };

  std::uint32_t virtual_len_ = 0;
  Bytes* bytes_ = nullptr;  // null for a virtual or empty value
};

static_assert(sizeof(Value) == 16, "kv::Value stays a 16-byte value type");

enum class EntryType : std::uint8_t { kPut, kDelete };

/// A key-value record with an owned key: what a memtable dumps and an
/// SSTable holds.
struct Entry {
  std::string key;
  Value value;
  std::uint64_t seq = 0;
  EntryType type = EntryType::kPut;

  std::uint64_t encoded_size() const { return key.size() + value.size() + 16; }
};

/// A memtable record: 40 bytes, with no allocation of its own. The key
/// bytes live in the owning table's key arena, which never moves them.
struct MemEntry {
  const char* key_data = nullptr;
  std::uint32_t key_len = 0;
  EntryType type = EntryType::kPut;
  Value value;
  std::uint64_t seq = 0;

  std::string_view key() const { return {key_data, key_len}; }
  std::uint64_t encoded_size() const { return key_len + value.size() + 16; }
};

static_assert(sizeof(MemEntry) == 40, "a memtable entry stays 40 bytes");

/// Memtable: newest write wins in place (the DB layer has no MVCC readers,
/// so keeping only the latest version per key is equivalent and cheaper).
/// Tombstones are retained for correct merge with older SSTables.
///
/// Entries live in fixed-size chunks in insertion order, so their addresses
/// never change. Each new key is appended to the table's byte arena and its
/// entry points at it, so no put allocates per entry. A DenseIndex (the
/// ProbeTable shared with LruMap and InternPool) maps a key to its entry's
/// position and serves put / get / del with one probe sequence. Key order
/// is built only when asked for (dump, seek, next): the entries added since
/// the last such call are sorted and merged into a cached sorted view.
class MemTable {
 public:
  /// `seed` is ignored — the table has no randomness. It stays because
  /// perfbench's memtable probe passes one.
  explicit MemTable(std::uint64_t /*seed*/ = 1) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;
  MemTable(MemTable&&) noexcept = default;
  MemTable& operator=(MemTable&&) noexcept = default;

  void put(std::string_view key, Value v, std::uint64_t seq);
  void del(std::string_view key, std::uint64_t seq);

  /// Latest entry for key, or nullptr (tombstones are returned too —
  /// caller distinguishes via Entry::type).
  const MemEntry* get(std::string_view key) const;

  /// All entries in key order (for flush / iteration).
  std::vector<Entry> dump() const;

  /// First entry with key >= `from`; advance with next(). Returns nullptr
  /// at the end.
  const MemEntry* seek(std::string_view from) const;
  const MemEntry* next(const MemEntry* e) const;

  std::uint64_t approximate_bytes() const { return bytes_; }
  std::size_t count() const { return index_.size(); }
  bool empty() const { return count() == 0; }

 private:
  static constexpr unsigned kChunkBits = 8;  // 256 entries per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

  MemEntry& at(std::uint32_t i) const { return chunks_[i >> kChunkBits][i & kChunkMask]; }
  /// The position of `key`'s entry, whose hash is `h`; IndexSlot::kNil when
  /// absent.
  std::uint32_t find(std::string_view key, std::uint32_t h) const;
  /// The entry for `key`, appended (empty, unaccounted) if it is new.
  MemEntry& find_or_append(std::string_view key, bool& appended);
  void write(std::string_view key, Value v, std::uint64_t seq, EntryType type);
  /// Merge the entries appended since the last call into sorted_.
  void sort_pending() const;

  std::vector<std::unique_ptr<MemEntry[]>> chunks_;
  ByteArena keys_{16 * 1024};
  DenseIndex index_;  // entry positions, in insertion order
  mutable std::vector<std::uint32_t> sorted_;  // entries [0, sorted_.size()) in key order
  std::uint64_t bytes_ = 0;
};

}  // namespace afc::kv
