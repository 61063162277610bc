#pragma once

#include <vector>

#include "cluster/map.h"
#include "osd/osd.h"

namespace afc::osd {

/// What one deep scrub found and fixed, summed over every PG.
struct ScrubReport {
  std::uint64_t objects_scrubbed = 0;
  std::uint64_t inconsistent = 0;
  std::uint64_t missing = 0;
  std::uint64_t repaired = 0;
};

/// Ceph's deep scrub of every logical object in every PG's census, for
/// both redundancy schemes; quiesce client traffic first. `osds[i]` must
/// be the OSD with id i.
///   1. Every position's copy self-checks its extent CRCs (bytes read
///      charged): a missing copy counts `missing`, a failing one
///      `inconsistent`. A bad position is rebuilt from clean copies only
///      (ObjectStore::holds_clean): the first clean replica, or a decode
///      from the first k clean shards. With fewer, nothing is repaired.
///   2. The clean copies must agree: each replica's fingerprint with the
///      first clean replica's (each mismatch counts `inconsistent`), or,
///      once every shard is clean, the stripe's parity with the data
///      shards (a mismatch counts once, and osd.ec_parity_mismatch).
/// With `repair`, every bad or disagreeing copy is rewritten.
sim::CoTask<ScrubReport> deep_scrub(sim::Simulation& sim, const cluster::ClusterMap& cmap,
                                    const std::vector<Osd*>& osds, bool repair);

}  // namespace afc::osd
