#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "fs/transaction.h"

namespace afc::store {

/// Whole-object snapshot used by recovery / backfill / scrub repair
/// (control plane; the caller charges the I/O).
struct ObjectExport {
  std::vector<std::pair<std::uint64_t, Payload>> extents;
  std::vector<std::pair<std::string, kv::Value>> xattrs;
  std::uint64_t size = 0;

  /// The extent starting exactly at `off`, or nullptr (the shards of one EC
  /// stripe line up: every shard writes the same shard-space offsets).
  const Payload* extent_at(std::uint64_t off) const {
    for (const auto& [eoff, pay] : extents)
      if (eoff == off) return &pay;
    return nullptr;
  }
};

/// Host-side object content shared by every ObjectStore backend: a table of
/// objects, each a checksummed extent map plus xattrs and a logical size.
/// Pure bookkeeping — nothing here has simulated cost; backends charge CPU
/// and device I/O around these calls.
class ExtentMap {
 public:
  struct Extent {
    Payload data;            // length == extent length
    std::uint64_t csum = 0;  // data.fingerprint() recorded at write time
  };
  /// Every legitimate write goes through here so the checksum always
  /// matches; corruption paths bypass it, leaving the csum stale.
  static Extent make_extent(Payload data) {
    const std::uint64_t c = data.fingerprint();
    return Extent{std::move(data), c};
  }
  /// One object copy. Both lists are sorted flat vectors: a populated
  /// object holds a handful of extents and two xattrs, and even a 4 MiB
  /// object cut into 4K extents holds at most 1,024, so an insert moves at
  /// most ~48 KiB.
  struct Object {
    FlatMap<std::uint64_t, Extent> extents;  // by offset, non-overlapping
    FlatMap<std::string, kv::Value> xattrs;
    std::uint64_t size = 0;
  };

  bool contains(const fs::ObjectId& oid) const { return objects_.count(oid) != 0; }
  std::size_t count() const { return objects_.size(); }
  Object* find(const fs::ObjectId& oid);
  const Object* find(const fs::ObjectId& oid) const;
  Object& get_or_create(const fs::ObjectId& oid);
  void remove(const fs::ObjectId& oid) { objects_.erase(oid); }
  std::vector<fs::ObjectId> objects_in_pg(std::uint32_t pg) const;

  static std::uint64_t object_hash(const fs::ObjectId& oid) {
    return fs::ObjectIdHash{}(oid) | 1;  // never 0 (0 reserved)
  }
  /// Synthesized content seed for implicitly-populated objects.
  static std::uint64_t populated_seed(const fs::ObjectId& oid) {
    return object_hash(oid) ^ 0xfeedfacecafebeefull;
  }

  /// Insert [off, off+data.size()) into the object, trimming or splitting
  /// overlapped extents (split pieces are re-checksummed).
  static void write_extent(Object& obj, std::uint64_t off, Payload data);

  /// Materialize [off, off+n) from the object's extents (holes read zero).
  static std::vector<std::uint8_t> assemble(const Object& obj, std::uint64_t off,
                                            std::uint64_t n);

  /// Content fingerprint over the object's extents + size (scrub).
  std::uint64_t fingerprint(const fs::ObjectId& oid) const;
  /// FAILURE INJECTION: silently flip one byte of the object's first
  /// extent, as latent media corruption would. Returns false if the object
  /// has no data.
  bool corrupt(const fs::ObjectId& oid);
  /// Deep-scrub self-check: every extent's content still matches the
  /// checksum recorded when it was written. True for absent objects.
  bool verify(const fs::ObjectId& oid) const;

  ObjectExport export_object(const fs::ObjectId& oid) const;

 private:
  std::unordered_map<fs::ObjectId, Object, fs::ObjectIdHash> objects_;
};

}  // namespace afc::store
