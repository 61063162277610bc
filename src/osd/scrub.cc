#include "osd/scrub.h"

#include "common/stage_names.h"
#include "osd/recovery.h"

namespace afc::osd {

namespace {

/// One deep scrub pass. The scheme's steps — naming, the rebuild in phase
/// 1 and the cross-copy check of phase 2 — are the pool's PgBackend; every
/// OSD runs the same scheme, so the first OSD's serves.
class Scrubber {
 public:
  Scrubber(sim::Simulation& sim, const cluster::ClusterMap& cmap,
           const std::vector<Osd*>& osds, bool repair)
      : sim_(sim), cmap_(cmap), osds_(osds), scheme_(osds.front()->pg_backend()),
        repair_(repair) {}

  sim::CoTask<ScrubReport> run() {
    for (std::uint32_t pg = 0; pg < cmap_.pool().pg_num; pg++) {
      holders_ = position_holders(osds_, cmap_.acting(pg));
      const std::set<std::string> names = scheme_.census(holders_, pg);
      if (names.empty()) continue;
      for (const std::string& name : names) {
        report_.objects_scrubbed++;
        const fs::ObjectId base{pg, name};
        co_await scrub_object(base);
      }
    }
    co_return report_;
  }

 private:
  sim::CoTask<void> scrub_object(const fs::ObjectId& base) {
    std::vector<fs::ObjectId> oids;
    for (unsigned p = 0; p < holders_.size(); p++) oids.push_back(scheme_.position_oid(base, p));

    // Phase 1: every copy self-checks its extent CRCs, its bytes read charged.
    std::vector<unsigned> clean;
    std::vector<unsigned> bad;
    for (unsigned p = 0; p < oids.size(); p++) {
      Osd* h = holders_[p];
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
    const std::size_t need = scheme_.rebuild_sources();
    if (repair_ && !bad.empty() && clean.size() >= need) {
      clean.resize(need);
      std::vector<store::ObjectExport> sources;
      for (unsigned p : clean) sources.push_back(holders_[p]->store().export_object(oids[p]));
      for (unsigned p : bad) {
        auto copy = scheme_.rebuild_copy(p, clean, sources);
        if (!copy) continue;
        co_await repair_copy(p, oids[p], std::move(*copy), base);
      }
    }

    // Phase 2: the copies clean now (phase-1 repairs included) must agree.
    clean.clear();
    for (unsigned p = 0; p < oids.size(); p++) {
      if (Osd* h = holders_[p]; h != nullptr && h->store().holds_clean(oids[p])) clean.push_back(p);
    }
    std::vector<PgBackend::CopyFix> fixes =
        scheme_.cross_check(osds_, base, holders_, clean, oids, report_.inconsistent);
    if (!repair_) co_return;
    for (auto& f : fixes) co_await repair_copy(f.first, oids[f.first], std::move(f.second), base);
  }

  /// The repair tail: install `data` as position `pos`'s copy of `base`.
  sim::CoTask<void> repair_copy(unsigned pos, const fs::ObjectId& oid, store::ObjectExport data,
                                const fs::ObjectId& base) {
    Osd& member = *holders_[pos];
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
  const PgBackend& scheme_;
  const bool repair_;
  std::vector<Osd*> holders_;  // by position, of the PG under scrub
  ScrubReport report_;
};

}  // namespace

sim::CoTask<ScrubReport> deep_scrub(sim::Simulation& sim, const cluster::ClusterMap& cmap,
                                    const std::vector<Osd*>& osds, bool repair) {
  Scrubber scrubber(sim, cmap, osds, repair);
  co_return co_await scrubber.run();
}

}  // namespace afc::osd
