#include "osd/recovery.h"

#include <algorithm>
#include <map>
#include <set>

#include "ec/layout.h"

namespace afc::osd {

namespace {

constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;

/// Rebuild every shard object of `pgid` at position `pos` onto `target` by
/// decode-from-peers (see recover_target). Returns shard objects rebuilt.
sim::CoTask<std::uint64_t> ec_rebuild_position(sim::Simulation& sim,
                                               cluster::ClusterMap& cmap,
                                               const std::vector<Osd*>& osds,
                                               std::uint32_t pgid, unsigned pos,
                                               Osd& target) {
  const unsigned k = cmap.ec_k();
  const unsigned m = cmap.ec_m();
  ec::Codec codec(k, m);
  const std::vector<std::uint32_t> acting = cmap.acting(pgid);
  if (acting.size() < std::size_t(k) + m) co_return 0;

  // Every stripe that has a shard on any surviving position needs its `pos`
  // shard present at the target.
  const std::set<std::string> bases = pg_census(cmap, osds, pgid, acting, pos);

  std::uint64_t rebuilt = 0;
  for (const auto& base : bases) {
    const fs::ObjectId base_oid{pgid, base};
    const fs::ObjectId toid = ec::shard_oid(base_oid, pos);

    // Export up to k clean source shards, charged like a backfill read.
    std::vector<unsigned> present;
    std::vector<store::ObjectExport> exports;
    for (unsigned p = 0; p < k + m && present.size() < k; p++) {
      Osd* src = p == pos ? nullptr : position_holder(osds, acting, p);
      if (src == nullptr) continue;
      const fs::ObjectId soid = ec::shard_oid(base_oid, p);
      co_await src->store().wait_object_readable(soid);
      if (!src->store().holds_clean(soid)) continue;
      auto exp = co_await src->push_export(soid);
      present.push_back(p);
      exports.push_back(std::move(exp));
    }
    if (present.size() < k) continue;  // unrecoverable right now; scrub retries later

    store::ObjectExport out = decode_shard(codec, pos, present, exports);
    if (out.extents.empty()) continue;

    // Delta rebuild: journal replay (restart) may already have restored the
    // shard — compare *content*, not fingerprints, because a live-written
    // data shard is a virtual slice while the decode emits real bytes.
    if (target.store().object_in_memory(toid)) {
      auto cur = target.store().export_object(toid);
      bool same = cur.extents.size() == out.extents.size();
      for (std::size_t i = 0; same && i < cur.extents.size(); i++)
        same = cur.extents[i].first == out.extents[i].first &&
               cur.extents[i].second.content_equals(out.extents[i].second);
      if (same) {
        target.counters().add("osd.ec_rebuild_skipped");
        continue;
      }
    }

    co_await target.recover_object(toid, std::move(out));
    target.counters().add("osd.ec_shards_rebuilt");
    rebuilt++;
    if (auto* tr = trace::Collector::active()) {
      tr->instant(trace::Span{std::uint64_t(pgid) << 8 | pos, trace::kFaultTrack},
                  tr->stage_id(stage::kEcRebuild), sim.now());
    }
  }

  // Continue the PG's version stream at the rebuilt member.
  for (unsigned p = 0; p < k + m; p++) {
    Osd* src = p == pos ? nullptr : position_holder(osds, acting, p);
    if (src == nullptr) continue;
    if (Pg* src_pg = src->find_pg(pgid)) {
      if (Pg* dst_pg = target.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
      break;
    }
  }
  co_return rebuilt;
}

}  // namespace

Osd* position_holder(const std::vector<Osd*>& osds, const std::vector<std::uint32_t>& acting,
                     unsigned p) {
  const std::uint32_t id = acting[p];
  return id == kNoOsd || id >= osds.size() ? nullptr : osds[id];
}

fs::ObjectId position_oid(const cluster::ClusterMap& cmap, const fs::ObjectId& base, unsigned p) {
  return cmap.erasure() ? ec::shard_oid(base, p) : base;
}

std::set<std::string> pg_census(const cluster::ClusterMap& cmap, const std::vector<Osd*>& osds,
                                std::uint32_t pg, const std::vector<std::uint32_t>& acting,
                                unsigned skip) {
  std::set<std::string> names;
  for (unsigned p = 0; p < acting.size(); p++) {
    Osd* h = p == skip ? nullptr : position_holder(osds, acting, p);
    if (h == nullptr) continue;
    for (auto& oid : h->store().objects_in_pg(pg)) {
      if (!cmap.erasure()) {
        names.emplace(oid.name());
      } else if (auto sn = ec::parse_shard(oid.name()); sn.has_value() && sn->shard == p) {
        names.insert(std::move(sn->base));
      }
    }
  }
  return names;
}

PgRemap plan_remap(const cluster::ClusterMap& cmap, std::uint32_t pg,
                   const std::vector<std::uint32_t>& old) {
  PgRemap r;
  r.pg = pg;
  r.now = cmap.acting(pg);
  r.decode = cmap.erasure();
  for (std::uint32_t m : old) {
    if (m != kNoOsd && cmap.crush().is_up(m)) {
      r.source = m;
      break;
    }
  }
  for (unsigned p = 0; p < r.now.size(); p++) {
    const std::uint32_t m = r.now[p];
    if (m == kNoOsd) continue;
    const bool needs_data =
        r.decode ? p >= old.size() || old[p] != m
                 : r.source != kNoOsd && std::find(old.begin(), old.end(), m) == old.end();
    if (needs_data) r.targets.push_back(p);
  }
  return r;
}

MapChange::MapChange(const cluster::ClusterMap& cmap) : cmap_(cmap) {
  old_.reserve(cmap.pool().pg_num);
  for (std::uint32_t pg = 0; pg < cmap.pool().pg_num; pg++) old_.push_back(cmap.acting(pg));
}

std::vector<PgRemap> MapChange::remaps() const {
  std::vector<PgRemap> out;
  for (std::uint32_t pg = 0; pg < old_.size(); pg++) {
    if (cmap_.acting(pg) != old_[pg]) out.push_back(plan_remap(cmap_, pg, old_[pg]));
  }
  return out;
}

void install_remap(const std::vector<Osd*>& osds, const PgRemap& r) {
  for (std::uint32_t m : r.now) {
    if (m != kNoOsd) osds[m]->set_pg_acting(r.pg, r.now);
  }
}

sim::CoTask<std::uint64_t> recover_target(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                          const std::vector<Osd*>& osds, const PgRemap& r,
                                          unsigned pos) {
  Osd& target = *osds[r.now[pos]];
  if (target.find_pg(r.pg) == nullptr) target.create_pg(r.pg, r.now);
  if (r.decode) co_return co_await ec_rebuild_position(sim, cmap, osds, r.pg, pos, target);
  co_return co_await osds[r.source]->push_pg(r.pg, target);
}

store::ObjectExport decode_shard(const ec::Codec& codec, unsigned pos,
                                 const std::vector<unsigned>& present,
                                 const std::vector<store::ObjectExport>& exports) {
  const unsigned k = codec.k();
  std::map<std::uint64_t, std::uint64_t> extents;
  for (const auto& e : exports)
    for (const auto& [off, pay] : e.extents) extents[off] = std::max(extents[off], pay.size());

  store::ObjectExport out;
  for (const auto& [off, len] : extents) {
    std::vector<unsigned> have;
    std::vector<std::vector<std::uint8_t>> chunks;
    for (std::size_t s = 0; s < exports.size() && have.size() < k; s++) {
      const Payload* pay = exports[s].extent_at(off);
      if (pay == nullptr) continue;
      auto bytes = pay->materialize();
      bytes.resize(len, 0);
      have.push_back(present[s]);
      chunks.push_back(std::move(bytes));
    }
    if (have.size() < k) continue;
    auto chunk = codec.reconstruct_shard(pos, have, chunks);
    if (!chunk.has_value()) continue;
    out.size = std::max(out.size, off + chunk->size());
    out.extents.emplace_back(off, Payload::bytes(std::move(*chunk)));
  }
  for (const auto& e : exports) {
    if (!e.xattrs.empty()) {
      out.xattrs = e.xattrs;
      break;
    }
  }
  return out;
}

}  // namespace afc::osd
