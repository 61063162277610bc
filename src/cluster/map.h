#pragma once

#include <string>
#include <string_view>

#include "cluster/crush.h"

namespace afc::cluster {

/// Cluster map: pool parameters + CRUSH topology + epoch. Both clients and
/// OSDs hold a reference and compute object → PG → acting-set mappings
/// locally (Ceph's "no metadata server on the data path").
class ClusterMap {
 public:
  /// Per-pool redundancy policy: full-copy splay replication (the seed
  /// behaviour) or striped Reed–Solomon EC(k+m).
  enum class Scheme { kReplicated, kErasure };

  /// Sentinel for an unfillable shard position in an EC acting set (more
  /// shards than live OSDs). Replicated acting sets never contain it.
  static constexpr std::uint32_t kNoOsd = ~std::uint32_t(0);

  struct PoolConfig {
    std::uint32_t pg_num = 1024;  // power of two
    unsigned replication = 2;
    /// Durable replicas required before a write may be acked (Ceph's pool
    /// min_size). 0 means "= replication": no degraded acks, the seed
    /// behaviour. Set below `replication` to let primaries ack degraded
    /// writes once a replication timeout gives up on a dead peer.
    /// For erasure pools 0 means "= k+1" (one shard of slack; never ack a
    /// stripe that a single further loss would destroy).
    unsigned min_size = 0;
    Scheme scheme = Scheme::kReplicated;
    unsigned ec_k = 4;
    unsigned ec_m = 2;
  };

  ClusterMap(const PoolConfig& pool) : pool_(pool) {}
  ClusterMap() : ClusterMap(PoolConfig{}) {}

  Crush& crush() { return crush_; }
  const Crush& crush() const { return crush_; }
  const PoolConfig& pool() const { return pool_; }
  bool erasure() const { return pool_.scheme == Scheme::kErasure; }
  unsigned ec_k() const { return pool_.ec_k; }
  unsigned ec_m() const { return pool_.ec_m; }
  /// Members of one PG's acting set: replica count or k+m shards.
  unsigned pool_size() const {
    return erasure() ? pool_.ec_k + pool_.ec_m : pool_.replication;
  }
  unsigned min_size() const {
    return pool_.min_size == 0 ? pool_.replication : pool_.min_size;
  }
  /// Durable members required before a write acks, scheme-aware: replicated
  /// min_size, or k+1 shards for EC (below k+1 the primary fails the op —
  /// below k the stripe would be unrecoverable).
  unsigned ack_floor() const {
    if (!erasure()) return min_size();
    return pool_.min_size == 0 ? pool_.ec_k + 1 : pool_.min_size;
  }

  std::uint64_t epoch() const { return epoch_; }
  void bump_epoch() { epoch_++; }

  /// Detected-membership semantics: acting sets exclude down-but-still-in
  /// members *without replacement* (replicated sets shrink; EC positions
  /// hole to kNoOsd), so a mark-down degrades the PG but moves no data —
  /// only a mark-out (CRUSH `in = false`) re-places. Off by default: the
  /// oracle path keeps up == in and acting sets always full-size.
  void set_filter_down(bool on) { filter_down_ = on; }

  /// Stable hash of an object name onto a PG (ps = placement seed).
  std::uint32_t pg_of(std::string_view object_name) const;

  /// Acting set (primary first) for a PG. Cached per epoch — bump_epoch()
  /// after topology changes to force recomputation (a CRUSH map push).
  /// Erasure pools return exactly k+m entries where the *position* is the
  /// shard index: surviving members keep their position across epochs
  /// (shards are not interchangeable the way replicas are) and unfillable
  /// positions hold kNoOsd.
  const std::vector<std::uint32_t>& acting(std::uint32_t pg) const {
    if (cache_epoch_ != epoch_) {
      acting_cache_.assign(pool_.pg_num, {});
      cache_epoch_ = epoch_;
    }
    auto& slot = acting_cache_[pg];
    if (slot.empty()) {
      auto raw = crush_.place(/*pool=*/0, pg, pool_size());
      slot = erasure() ? ec_remap(pg, raw) : std::move(raw);
      if (filter_down_) filter_down_members(slot);
    }
    return slot;
  }
  std::uint32_t primary(std::uint32_t pg) const {
    const auto& a = acting(pg);
    for (std::uint32_t o : a)
      if (o != kNoOsd) return o;
    return 0;
  }

 private:
  /// Pin shard positions across epochs: survivors of the previous
  /// assignment keep their slot, newcomers from `raw` fill vacancies in
  /// placement order, leftovers stay kNoOsd.
  std::vector<std::uint32_t> ec_remap(
      std::uint32_t pg, const std::vector<std::uint32_t>& raw) const;

  /// Drop down members from an acting set in place (detected mode only).
  /// The ec_assign_ record keeps the unfiltered assignment, so a member
  /// that comes back up reclaims its exact shard position.
  void filter_down_members(std::vector<std::uint32_t>& acting) const;

  PoolConfig pool_;
  Crush crush_;
  bool filter_down_ = false;
  std::uint64_t epoch_ = 1;
  mutable std::uint64_t cache_epoch_ = 0;
  mutable std::vector<std::vector<std::uint32_t>> acting_cache_;
  /// Persistent (cross-epoch) shard-position assignment per PG; only ever
  /// populated for erasure pools.
  mutable std::vector<std::vector<std::uint32_t>> ec_assign_;
};

}  // namespace afc::cluster
