#include "osd/recovery.h"

namespace afc::osd {

namespace {
constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;
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

void install_remap(const std::vector<Osd*>& osds, const PgRemap& r) {
  for (std::uint32_t m : r.now) {
    if (m != kNoOsd) osds[m]->set_pg_acting(r.pg, r.now);
  }
}

sim::CoTask<std::uint64_t> recover_target(const std::vector<Osd*>& osds, const PgRemap& r,
                                          unsigned pos) {
  Osd& target = *osds[r.now[pos]];
  if (target.find_pg(r.pg) == nullptr) target.create_pg(r.pg, r.now);
  co_return co_await target.pg_backend().rebuild_position(osds, r, pos);
}

}  // namespace afc::osd
