#pragma once

#include <set>
#include <string>
#include <vector>

#include "cluster/map.h"
#include "ec/codec.h"
#include "osd/osd.h"

namespace afc::osd {

/// The redundancy scheme's recovery rule for one PG whose acting set moved
/// from `old` to `now` — the one rule the oracle fault injector,
/// ClusterSim's rebalance and a detected-mode map delta all apply:
///
///   * every member of `now` holds the PG with acting set `now`;
///   * the source is the first member of `old` the new map has up;
///   * the targets are, replicated: the members of `now` absent from `old`
///     (none without a source to copy from); EC: the positions whose holder
///     changed, kNoOsd skipped (ec_remap pins survivors to their slots);
///   * a replicated target is copied from the source (Osd::push_pg), an EC
///     target is decoded from k survivors (recover_target).
struct PgRemap {
  std::uint32_t pg = 0;
  std::vector<std::uint32_t> now;
  std::uint32_t source = cluster::ClusterMap::kNoOsd;
  std::vector<unsigned> targets;  // positions in `now`, ascending
  bool decode = false;            // EC: targets decode rather than copy
};

/// The remap of `pg` from `old` to its acting set under the current map.
PgRemap plan_remap(const cluster::ClusterMap& cmap, std::uint32_t pg,
                   const std::vector<std::uint32_t>& old);

/// A map change seen from outside any OSD (oracle injector, ClusterSim):
/// construct before the change to snapshot every PG's acting set, call
/// remaps() after it for the PGs whose set moved, ascending by pgid.
class MapChange {
 public:
  explicit MapChange(const cluster::ClusterMap& cmap);
  std::vector<PgRemap> remaps() const;

 private:
  const cluster::ClusterMap& cmap_;
  std::vector<std::vector<std::uint32_t>> old_;
};

/// Every member of `r.now` holds the PG with acting set `r.now`. `osds[i]`
/// must be the OSD with id i (the injector/ClusterSim convention).
void install_remap(const std::vector<Osd*>& osds, const PgRemap& r);

/// Recover target position `pos` of `r` (the target first creates the PG if
/// it does not hold it yet). Returns the objects copied or shards rebuilt.
///
/// An EC target is rebuilt by decode-from-peers: every stripe with a shard
/// on a surviving position gets its `pos` shard decoded from >= k clean
/// source chunks (charged as source reads + wire transfer, like replicated
/// backfill) and installed. Already-identical shards are skipped; extents
/// with fewer than k clean survivors (a torn stripe mid-write) are left for
/// scrub. Replicated recovery copies an object, EC recovery recomputes it.
sim::CoTask<std::uint64_t> recover_target(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                          const std::vector<Osd*>& osds, const PgRemap& r,
                                          unsigned pos);

/// Holder of position `p` in `acting`, or nullptr for a hole.
Osd* position_holder(const std::vector<Osd*>& osds, const std::vector<std::uint32_t>& acting,
                     unsigned p);
/// Position `p`'s copy of the logical object `base`: the object itself
/// (replicated) or its shard object ec::shard_oid(base, p) (EC).
fs::ObjectId position_oid(const cluster::ClusterMap& cmap, const fs::ObjectId& base, unsigned p);
/// The logical objects of `pg` whose copy some position of `acting` other
/// than `skip` holds, by name, ascending.
std::set<std::string> pg_census(const cluster::ClusterMap& cmap, const std::vector<Osd*>& osds,
                                std::uint32_t pg, const std::vector<std::uint32_t>& acting,
                                unsigned skip = ~0u);

/// Decode shard position `pos` of one stripe from source shards
/// (`exports[i]` holds position `present[i]`), extent by extent over the
/// union of the sources' extents, each from the first k sources holding
/// it. An extent fewer than k sources hold (a torn stripe tail) is left out;
/// the xattrs are the first source's that has any.
store::ObjectExport decode_shard(const ec::Codec& codec, unsigned pos,
                                 const std::vector<unsigned>& present,
                                 const std::vector<store::ObjectExport>& exports);

}  // namespace afc::osd
