#include "osd/ec_rebuild.h"

#include <map>
#include <set>

#include "ec/codec.h"
#include "ec/layout.h"

namespace afc::osd {

namespace {

/// Find the extent at exactly `off` in an export (extent maps of one stripe
/// line up across shards: every shard writes the same shard-space offsets).
const Payload* extent_at(const fs::FileStore::ObjectExport& exp, std::uint64_t off) {
  for (const auto& [eoff, pay] : exp.extents)
    if (eoff == off) return &pay;
  return nullptr;
}

}  // namespace

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
  std::set<std::string> bases;
  for (unsigned p = 0; p < k + m; p++) {
    if (p == pos) continue;
    const std::uint32_t holder = acting[p];
    if (holder == cluster::ClusterMap::kNoOsd || holder >= osds.size()) continue;
    if (osds[holder] == nullptr) continue;
    for (const auto& oid : osds[holder]->store().objects_in_pg(pgid))
      if (auto sn = ec::parse_shard(oid.name); sn.has_value() && sn->shard == p)
        bases.insert(sn->base);
  }

  std::uint64_t rebuilt = 0;
  for (const auto& base : bases) {
    const fs::ObjectId base_oid{pgid, base};
    const fs::ObjectId toid = ec::shard_oid(base_oid, pos);

    // Export up to k clean source shards, charged like a backfill read:
    // source device read, wire transfer, one recovery hop.
    struct Src {
      unsigned p;
      fs::FileStore::ObjectExport exp;
    };
    std::vector<Src> srcs;
    std::vector<std::pair<std::string, kv::Value>> xattrs;
    for (unsigned p = 0; p < k + m && srcs.size() < k; p++) {
      if (p == pos) continue;
      const std::uint32_t holder = acting[p];
      if (holder == cluster::ClusterMap::kNoOsd || holder >= osds.size()) continue;
      Osd* src = osds[holder];
      if (src == nullptr) continue;
      const fs::ObjectId soid = ec::shard_oid(base_oid, p);
      co_await src->store().wait_object_readable(soid);
      if (!src->store().object_in_memory(soid)) continue;
      // Never rebuild from a chunk that fails its own CRC — that would
      // launder latent corruption into freshly "recovered" data.
      if (!src->store().verify_object(soid)) continue;
      auto exp = src->store().export_object(soid);
      std::uint64_t bytes = 0;
      for (const auto& [off, pay] : exp.extents) bytes += pay.size();
      if (bytes > 0) {
        co_await src->store().read(soid, 0, exp.size, /*want_data=*/false);
        co_await src->node().nic_transmit(bytes + 512);
        co_await sim::delay(sim, 60 * kMicrosecond, "osd.push_hop");
      }
      if (xattrs.empty()) xattrs = exp.xattrs;
      srcs.push_back(Src{p, std::move(exp)});
    }
    if (srcs.size() < k) continue;  // unrecoverable right now; scrub retries later

    // Reconstruct extent by extent over the union of source extents. An
    // extent with fewer than k survivors is a torn stripe tail — skipped
    // here, flagged and repaired by the parity-consistency scrub.
    std::map<std::uint64_t, std::uint64_t> extents;
    for (const auto& s : srcs)
      for (const auto& [off, pay] : s.exp.extents)
        extents[off] = std::max(extents[off], pay.size());

    fs::FileStore::ObjectExport out;
    for (const auto& [off, len] : extents) {
      std::vector<unsigned> present;
      std::vector<std::vector<std::uint8_t>> chunks;
      for (const auto& s : srcs) {
        const Payload* pay = extent_at(s.exp, off);
        if (pay == nullptr || present.size() >= k) continue;
        auto bytes = pay->materialize();
        bytes.resize(len, 0);
        present.push_back(s.p);
        chunks.push_back(std::move(bytes));
      }
      if (present.size() < k) continue;
      auto chunk = codec.reconstruct_shard(pos, present, chunks);
      if (!chunk.has_value()) continue;
      out.size = std::max(out.size, off + chunk->size());
      out.extents.emplace_back(off, Payload::bytes(std::move(*chunk)));
    }
    if (out.extents.empty()) continue;
    out.xattrs = xattrs;

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
    if (p == pos) continue;
    const std::uint32_t holder = acting[p];
    if (holder == cluster::ClusterMap::kNoOsd || holder >= osds.size()) continue;
    if (osds[holder] == nullptr) continue;
    if (Pg* src_pg = osds[holder]->find_pg(pgid)) {
      if (Pg* dst_pg = target.find_pg(pgid)) dst_pg->observe_version(src_pg->version());
      break;
    }
  }
  co_return rebuilt;
}

}  // namespace afc::osd
