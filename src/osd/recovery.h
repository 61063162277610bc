#pragma once

#include <vector>

#include "cluster/map.h"
#include "osd/osd.h"

namespace afc::osd {

// The recovery rule itself (PgRemap) is the scheme's: PgBackend::plan_remap
// and PgBackend::rebuild_position (osd/pg_backend.h).

/// A map change seen from outside any OSD (the oracle plane's crash and
/// restart, an operator's decommission or expansion): construct before the
/// change to snapshot every PG's acting set, call remaps() after it for the
/// PGs whose set moved, ascending by pgid.
class MapChange {
 public:
  explicit MapChange(const cluster::ClusterMap& cmap);
  std::vector<PgRemap> remaps(const PgBackend& scheme) const;
  /// Every OSD the change dropped from a PG it still holds takes the PG's
  /// new acting set, recovering nothing: an ex-member left on the old set
  /// would drive the same recovery again when a map delta reaches it.
  void release_dropped(const std::vector<Osd*>& osds) const;

 private:
  const cluster::ClusterMap& cmap_;
  std::vector<std::vector<std::uint32_t>> old_;
};

/// Apply the recovery rule to every PG `change` re-placed, ascending: the
/// members of its new acting set hold it, then each target recovers — one
/// at a time, returning the objects moved, or with `background` spawned,
/// completing at once and returning the recoveries launched. `osds[i]`
/// must be the OSD with id i and outlive the recoveries.
sim::CoTask<std::uint64_t> apply_map_change(const std::vector<Osd*>& osds,
                                            const MapChange& change, bool background);

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
