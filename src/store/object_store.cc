#include "store/object_store.h"

#include "common/stage_names.h"
#include "core/trace.h"
#include "fs/journal.h"

namespace afc::store {

void ObjectStore::note_apply_done(const fs::ObjectId& oid) {
  auto it = pending_applies_.find(oid);
  if (it == pending_applies_.end()) return;
  if (--it->second == 0) {
    pending_applies_.erase(it);
    gate_cv_.notify_all();
  }
}

sim::CoTask<void> ObjectStore::wait_object_readable(const fs::ObjectId& oid) {
  while (pending_applies_.find(oid) != pending_applies_.end()) {
    co_await gate_cv_.wait();
  }
}

sim::CoTask<void> ObjectStore::replay(bool lightweight) {
  auto count = [this](const char* name, std::uint64_t n = 1) {
    if (counters_ != nullptr && n > 0) counters_->add(name, n);
  };
  fs::Journal& ring = *wal();
  auto res = ring.restart();
  count("osd.journal.torn_tails", res.torn_tails);
  count("osd.journal.crc_failures", res.crc_failures);
  count("osd.journal.replay_truncated", res.truncated);
  for (auto& rec : res.records) {
    auto tx = fs::Transaction::decode(rec.payload.data(), rec.payload.size());
    if (tx.has_value()) {
      // Re-apply idempotently: re-writing the same extents/omap keys is
      // content-idempotent, so racing a zombie apply of the same record is
      // harmless. Sequencing against new client ops is the dedup-by-seq
      // contract — each record applies at most once from here.
      co_await apply_transaction(*tx, lightweight);
      count("osd.journal.records_replayed");
      if (auto* tr = trace::Collector::active(); tr != nullptr) {
        tr->instant(trace::Span{rec.seq, trace::kFaultTrack},
                    tr->stage_id(stage::kJournalReplay), sim_.now());
      }
    } else {
      // CRC-clean but undecodable should be impossible; retire it so the
      // ring cannot wedge on it either way.
      count("osd.journal.replay_undecodable");
    }
    ring.mark_applied(rec.seq);
  }
}

}  // namespace afc::store
