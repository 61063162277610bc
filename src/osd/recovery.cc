#include "osd/recovery.h"

#include <algorithm>

namespace afc::osd {

namespace {

constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;

/// Every member of `r.now` holds the PG with acting set `r.now`.
void install_remap(const std::vector<Osd*>& osds, const PgRemap& r) {
  for (std::uint32_t m : r.now) {
    if (m != kNoOsd) osds[m]->set_pg_acting(r.pg, r.now);
  }
}

}  // namespace

std::vector<Osd*> position_holders(const std::vector<Osd*>& osds,
                                   const std::vector<std::uint32_t>& acting) {
  std::vector<Osd*> holders;
  holders.reserve(acting.size());
  for (std::uint32_t id : acting) {
    holders.push_back(id == kNoOsd || id >= osds.size() ? nullptr : osds[id]);
  }
  return holders;
}

MapChange::MapChange(const cluster::ClusterMap& cmap) : cmap_(cmap) {
  old_.reserve(cmap.pool().pg_num);
  for (std::uint32_t pg = 0; pg < cmap.pool().pg_num; pg++) old_.push_back(cmap.acting(pg));
}

std::vector<PgRemap> MapChange::remaps(const PgBackend& scheme) const {
  std::vector<PgRemap> out;
  for (std::uint32_t pg = 0; pg < old_.size(); pg++) {
    if (cmap_.acting(pg) != old_[pg]) out.push_back(scheme.plan_remap(pg, old_[pg]));
  }
  return out;
}

void MapChange::release_dropped(const std::vector<Osd*>& osds) const {
  for (std::uint32_t pg = 0; pg < old_.size(); pg++) {
    const std::vector<std::uint32_t>& now = cmap_.acting(pg);
    if (now == old_[pg]) continue;
    for (std::uint32_t m : old_[pg]) {
      if (m == kNoOsd || m >= osds.size() || std::ranges::find(now, m) != now.end()) continue;
      if (Pg* held = osds[m]->find_pg(pg)) held->set_acting(now);
    }
  }
}

sim::CoTask<std::uint64_t> recover_target(const std::vector<Osd*>& osds, const PgRemap& r,
                                          unsigned pos) {
  Osd& target = *osds[r.now[pos]];
  if (target.find_pg(r.pg) == nullptr) target.create_pg(r.pg, r.now);
  co_return co_await target.pg_backend().rebuild_position(osds, r, pos);
}

sim::CoTask<std::uint64_t> apply_map_change(const std::vector<Osd*>& osds,
                                            const MapChange& change, bool background) {
  // Survivors no longer in an acting set keep their stale data (a real
  // cluster trims it lazily), and the background recoveries keep the data
  // path running meanwhile, as in Ceph.
  std::uint64_t n = 0;
  for (const PgRemap& r : change.remaps(osds.front()->pg_backend())) {
    install_remap(osds, r);
    for (unsigned pos : r.targets) {
      if (background) {
        sim::spawn_fn([&osds, r, pos]() -> sim::CoTask<void> {
          co_await recover_target(osds, r, pos);
        });
        n++;
      } else {
        n += co_await recover_target(osds, r, pos);
      }
    }
  }
  co_return n;
}

}  // namespace afc::osd
