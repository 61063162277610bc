#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fs/transaction.h"

namespace afc::ec {

/// Stripe geometry and shard-object naming shared by the OSD write/read
/// paths, recovery, and scrub.
///
/// A client object "foo" in an EC(k+m) pool is stored as k+m shard objects
/// "foo.s0".."foo.s{k+m-1}" (s0..s{k-1} data, the rest parity), all in the
/// base object's PG. A client extent [off, off+len) maps to the shard
/// extent [off/k, off/k + ceil(len/k)) on every shard — writes are 4 KiB
/// aligned and k divides the block size in all shipped configs, so shard
/// extents of distinct client blocks never overlap.

inline std::uint64_t chunk_len(std::uint64_t len, unsigned k) {
  return (len + k - 1) / k;
}

inline std::uint64_t shard_offset(std::uint64_t object_off, unsigned k) {
  return object_off / k;
}

inline fs::ObjectId shard_oid(const fs::ObjectId& base, unsigned shard) {
  std::string name(base.name());
  name += ".s";
  name += std::to_string(shard);
  return fs::ObjectId{base.pg, name};
}

struct ShardName {
  std::string base;
  unsigned shard = 0;
};

/// Inverse of shard_oid on the name part; nullopt for non-shard names.
std::optional<ShardName> parse_shard(std::string_view name);

}  // namespace afc::ec
