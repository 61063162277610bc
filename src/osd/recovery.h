#pragma once

#include <vector>

#include "cluster/map.h"
#include "osd/osd.h"

namespace afc::osd {

// The recovery rule itself (PgRemap) is the scheme's: PgBackend::plan_remap
// and PgBackend::rebuild_position (osd/pg_backend.h).

/// A map change seen from outside any OSD (oracle injector, ClusterSim):
/// construct before the change to snapshot every PG's acting set, call
/// remaps() after it for the PGs whose set moved, ascending by pgid.
class MapChange {
 public:
  explicit MapChange(const cluster::ClusterMap& cmap);
  std::vector<PgRemap> remaps(const PgBackend& scheme) const;

 private:
  const cluster::ClusterMap& cmap_;
  std::vector<std::vector<std::uint32_t>> old_;
};

/// Every member of `r.now` holds the PG with acting set `r.now`. `osds[i]`
/// must be the OSD with id i (the injector/ClusterSim convention).
void install_remap(const std::vector<Osd*>& osds, const PgRemap& r);

/// Recover target position `pos` of `r` (the target first creates the PG if
/// it does not hold it yet) through the target's PgBackend: a replicated
/// target copies every object from the source, an EC target decodes its
/// shards from k survivors. Returns the objects copied or shards rebuilt.
sim::CoTask<std::uint64_t> recover_target(const std::vector<Osd*>& osds, const PgRemap& r,
                                          unsigned pos);

/// The holder of each position of `acting` (nullptr for a hole).
std::vector<Osd*> position_holders(const std::vector<Osd*>& osds,
                                   const std::vector<std::uint32_t>& acting);

}  // namespace afc::osd
