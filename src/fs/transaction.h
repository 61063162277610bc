#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interned.h"
#include "common/payload.h"
#include "core/trace.h"
#include "kv/memtable.h"

namespace afc::fs {

/// Object identity within one OSD's store: the placement-group it hashes to
/// plus its name (e.g. "rbd_data.3.00000000004a").
///
/// The name is a handle into one process-wide, append-only name table
/// (names()), so a copy is 8 bytes and needs no allocation, and equality is
/// two integer compares: the table gives each distinct string one handle.
/// Nothing observable depends on handle values. Order is by pg, then by
/// name bytes, and ObjectIdHash hashes the name bytes, so both match what
/// an owned std::string name would give.
class ObjectId {
 public:
  ObjectId() = default;
  ObjectId(std::uint32_t pg, std::string_view name) : pg(pg), name_(names().intern(name)) {}

  std::string_view name() const { return names().lookup(name_); }
  /// std::hash<std::string> of name(), cached in the table.
  std::size_t name_hash() const { return names().hash(name_); }

  bool operator==(const ObjectId&) const = default;
  std::strong_ordering operator<=>(const ObjectId& o) const {
    if (pg != o.pg) return pg <=> o.pg;
    if (name_ == o.name_) return std::strong_ordering::equal;
    return name() <=> o.name();
  }

  /// The table every object name lives in. It is never freed: it is bounded
  /// by the distinct names a process ever uses, and stays reachable from
  /// this static (docs/MODEL.md). It takes no lock: like Payload's count,
  /// it relies on the simulator being single-threaded.
  static InternPool& names() {
    static InternPool* const table = [] {
      auto* t = new InternPool;
      t->intern("");  // handle 0: the default-constructed empty name
      return t;
    }();
    return *table;
  }

  std::uint32_t pg = 0;

 private:
  InternPool::Id name_ = 0;
};

static_assert(sizeof(ObjectId) <= 16, "ObjectId stays a small value type");

struct ObjectIdHash {
  std::size_t operator()(const ObjectId& o) const {
    return o.name_hash() ^ (std::size_t(o.pg) * 0x9e3779b97f4a7c15ull);
  }
};

enum class TxOpType : std::uint8_t {
  kWrite,          // OP_WRITE: object data
  kOmapSetKeys,    // OP_OMAP_SETKEYS: PG log + omap into the KV DB
  kOmapRmKeyRange, // PG log trim
  kSetAttrs,       // OP_SETATTRS: xattrs (_ / snapset)
  kSetAllocHint,   // OP_SETALLOCHINT: fallocate hint (removed by AFCeph)
};

struct TxOp {
  TxOpType type{};
  ObjectId oid;
  std::uint64_t offset = 0;
  Payload data;                                              // kWrite
  std::vector<std::pair<std::string, kv::Value>> omap;       // kOmapSetKeys
  std::string range_lo, range_hi;                            // kOmapRmKeyRange
  std::vector<std::pair<std::string, kv::Value>> attrs;       // kSetAttrs
};

/// An ObjectStore transaction, mirroring Fig. 7 of the paper: one client
/// write becomes OP_WRITE + OP_OMAP_SETKEYS (PG log, pg info) +
/// OP_SETATTRS (+ OP_SETALLOCHINT in community Ceph). The journal writes
/// the encoded transaction; the filestore later applies each op.
class Transaction {
 public:
  void write(ObjectId oid, std::uint64_t offset, Payload data);
  void omap_setkeys(ObjectId oid, std::vector<std::pair<std::string, kv::Value>> kvs);
  void omap_rmkeyrange(ObjectId oid, std::string lo, std::string hi);
  void setattrs(ObjectId oid, std::vector<std::pair<std::string, kv::Value>> attrs);
  void set_alloc_hint(ObjectId oid);
  /// Room for `n` ops, so building a transaction allocates its op list once.
  void reserve(std::size_t n) { ops_.reserve(n); }

  const std::vector<TxOp>& ops() const { return ops_; }
  std::size_t op_count() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Encoded size as journal payload (headers + data + metadata payloads).
  /// This is the *simulated* wire size used for device/throttle accounting;
  /// encode() below produces a separate compact host-side image.
  std::uint64_t encoded_bytes() const;

  /// Serialize to a self-contained byte image the journal can checksum,
  /// retain in its ring and hand back at replay. Virtual payloads encode as
  /// (len, seed, stream_off) — no materialization — so the image stays tiny
  /// regardless of the simulated data size; real payloads encode their
  /// bytes. decode(encode()) reproduces a transaction whose apply writes
  /// identical content.
  std::vector<std::uint8_t> encode() const;

  /// Inverse of encode(). Returns nullopt on any truncated, overlong or
  /// malformed image (replay treats that as a corrupt record).
  static std::optional<Transaction> decode(const std::uint8_t* data, std::size_t len);

  /// Trace attribution for the op this transaction encodes (invalid when
  /// tracing is off); the filestore and KV layers charge their spans to it.
  trace::Span trace;

 private:
  std::vector<TxOp> ops_;
};

}  // namespace afc::fs
