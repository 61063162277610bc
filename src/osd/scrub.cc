#include "osd/scrub.h"

#include <map>
#include <optional>

#include "common/stage_names.h"
#include "osd/recovery.h"

namespace afc::osd {

namespace {

/// A position and the copy that replaces its copy of an object.
using Fix = std::pair<unsigned, store::ObjectExport>;

/// One deep scrub pass. Besides naming (position_oid), only the rebuild
/// in phase 1 and the cross-copy check of phase 2 depend on the scheme.
class Scrubber {
 public:
  Scrubber(sim::Simulation& sim, const cluster::ClusterMap& cmap,
           const std::vector<Osd*>& osds, bool repair)
      : sim_(sim), cmap_(cmap), osds_(osds), repair_(repair) {
    if (cmap.erasure()) codec_.emplace(cmap.ec_k(), cmap.ec_m());
  }

  sim::CoTask<ScrubReport> run() {
    for (std::uint32_t pg = 0; pg < cmap_.pool().pg_num; pg++) {
      acting_ = cmap_.acting(pg);
      const std::set<std::string> names = pg_census(cmap_, osds_, pg, acting_);
      if (names.empty()) continue;
      report_.pgs_scrubbed++;
      for (const std::string& name : names) {
        report_.objects_scrubbed++;
        const fs::ObjectId base{pg, name};
        co_await scrub_object(base);
      }
    }
    co_return report_;
  }

 private:
  Osd* holder(unsigned p) const { return position_holder(osds_, acting_, p); }

  sim::CoTask<void> scrub_object(const fs::ObjectId& base) {
    std::vector<fs::ObjectId> oids;
    for (unsigned p = 0; p < acting_.size(); p++) oids.push_back(position_oid(cmap_, base, p));

    // Phase 1: every copy self-checks its extent CRCs, its bytes read charged.
    std::vector<unsigned> clean;
    std::vector<unsigned> bad;
    for (unsigned p = 0; p < oids.size(); p++) {
      Osd* h = holder(p);
      if (h == nullptr) continue;  // EC hole: no store to check
      store::ObjectStore& store = h->store();
      const bool here = store.object_in_memory(oids[p]);
      if (here) co_await store.read(oids[p], 0, store.object_size(oids[p]), /*want_data=*/false);
      if (store.holds_clean(oids[p])) {
        clean.push_back(p);
        continue;
      }
      (here ? report_.inconsistent : report_.missing)++;
      bad.push_back(p);
    }
    // A rebuild reads one clean replica, or decodes from k clean shards.
    const std::size_t need = codec_ ? codec_->k() : 1;
    if (repair_ && !bad.empty() && clean.size() >= need) {
      clean.resize(need);
      std::vector<store::ObjectExport> sources;
      for (unsigned p : clean) sources.push_back(holder(p)->store().export_object(oids[p]));
      for (unsigned p : bad) {
        store::ObjectExport copy = codec_ ? decode_shard(*codec_, p, clean, sources) : sources[0];
        if (codec_ && copy.extents.empty()) continue;  // torn tail only: phase 2's problem
        co_await repair_copy(p, oids[p], std::move(copy), base);
      }
    }

    // Phase 2: the copies clean now (phase-1 repairs included) must agree.
    clean.clear();
    for (unsigned p = 0; p < oids.size(); p++) {
      if (Osd* h = holder(p); h != nullptr && h->store().holds_clean(oids[p])) clean.push_back(p);
    }
    std::vector<Fix> fixes =
        codec_ ? parity_fixes(base, clean, oids) : fingerprint_fixes(clean, oids);
    if (!repair_) co_return;
    for (Fix& f : fixes) co_await repair_copy(f.first, oids[f.first], std::move(f.second), base);
  }

  /// Replicated: every clean replica whose fingerprint differs from the
  /// first clean replica's is inconsistent, and gets that replica's copy.
  std::vector<Fix> fingerprint_fixes(const std::vector<unsigned>& clean,
                                     const std::vector<fs::ObjectId>& oids) {
    std::vector<Fix> fixes;
    if (clean.empty()) return fixes;
    const store::ObjectStore& first = holder(clean[0])->store();
    const std::uint64_t want = first.object_fingerprint(oids[clean[0]]);
    for (unsigned p : clean) {
      if (holder(p)->store().object_fingerprint(oids[p]) == want) continue;
      report_.inconsistent++;
      fixes.push_back({p, first.export_object(oids[clean[0]])});
    }
    return fixes;
  }

  /// EC: stripe parity consistency, checkable once every position is
  /// clean. A torn stripe write (crash mid-fanout) leaves shards that each
  /// pass their own CRC yet violate the parity equation; only a
  /// cross-shard recompute can see that.
  std::vector<Fix> parity_fixes(const fs::ObjectId& base, const std::vector<unsigned>& clean,
                                const std::vector<fs::ObjectId>& oids) {
    const unsigned k = codec_->k();
    const unsigned m = codec_->m();
    std::vector<Fix> fixes;
    if (clean.size() != k + m) return fixes;
    std::vector<store::ObjectExport> all;
    for (unsigned p = 0; p < k + m; p++) all.push_back(holder(p)->store().export_object(oids[p]));
    std::map<std::uint64_t, std::uint64_t> offsets;
    for (unsigned p = 0; p < k + m; p++)
      for (const auto& [off, pay] : all[p].extents)
        offsets[off] = std::max(offsets[off], pay.size());
    // Authoritative convergence rule for an inconsistent (never-acked)
    // stripe: the data shards' stored bytes win, absent data extents count
    // as zeros, parity is recomputed. Reads after repair return a single
    // consistent pre-or-post-write mix, and a re-scrub finds nothing.
    std::vector<bool> needs(k + m, false);
    std::vector<store::ObjectExport> fixed(k + m);
    for (const auto& [off, len] : offsets) {
      std::vector<std::vector<std::uint8_t>> data;
      for (unsigned j = 0; j < k; j++) {
        const Payload* pay = all[j].extent_at(off);
        auto bytes = pay != nullptr ? pay->materialize() : std::vector<std::uint8_t>();
        bytes.resize(len, 0);
        data.push_back(std::move(bytes));
      }
      auto parity = codec_->encode(data);
      for (unsigned p = 0; p < k + m; p++) {
        const std::vector<std::uint8_t>& want = p < k ? data[p] : parity[p - k];
        const Payload* stored = all[p].extent_at(off);
        if (stored == nullptr || stored->size() != len || stored->materialize() != want) {
          needs[p] = true;
        }
        fixed[p].size = std::max(fixed[p].size, off + len);
        fixed[p].extents.emplace_back(off, Payload::bytes(want));
      }
    }
    for (unsigned p = 0; p < k + m; p++) {
      if (!needs[p]) continue;
      fixed[p].xattrs = all[p].xattrs.empty() ? all[0].xattrs : all[p].xattrs;
      fixes.push_back({p, std::move(fixed[p])});
    }
    if (fixes.empty()) return fixes;
    report_.inconsistent++;
    osds_[cmap_.primary(base.pg)]->counters().add("osd.ec_parity_mismatch");
    if (auto* tr = trace::Collector::active()) {
      tr->instant(trace::Span{fs::ObjectIdHash{}(base) | 1, trace::kFaultTrack},
                  tr->stage_id(stage::kEcParityMismatch), sim_.now());
    }
    return fixes;
  }

  /// The repair tail: install `data` as position `pos`'s copy of `base`.
  sim::CoTask<void> repair_copy(unsigned pos, const fs::ObjectId& oid, store::ObjectExport data,
                                const fs::ObjectId& base) {
    Osd& member = *holder(pos);
    co_await member.recover_object(oid, std::move(data));
    report_.repaired++;
    member.counters().add("osd.scrub_objects_repaired");
    if (auto* tr = trace::Collector::active()) {
      tr->instant(trace::Span{fs::ObjectIdHash{}(base) | 1, trace::kFaultTrack},
                  tr->stage_id(stage::kScrubRepair), sim_.now());
    }
  }

  sim::Simulation& sim_;
  const cluster::ClusterMap& cmap_;
  const std::vector<Osd*>& osds_;
  const bool repair_;
  std::optional<ec::Codec> codec_;     // EC pools only
  std::vector<std::uint32_t> acting_;  // the PG under scrub
  ScrubReport report_;
};

}  // namespace

sim::CoTask<ScrubReport> deep_scrub(sim::Simulation& sim, const cluster::ClusterMap& cmap,
                                    const std::vector<Osd*>& osds, bool repair) {
  Scrubber scrubber(sim, cmap, osds, repair);
  co_return co_await scrubber.run();
}

}  // namespace afc::osd
