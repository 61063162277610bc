#include "store/object_store.h"

#include <algorithm>

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

std::uint64_t ObjectStore::object_size(const fs::ObjectId& oid) const {
  const Object* obj = objects_.find(oid);
  return obj != nullptr ? obj->size : 0;
}

ObjectStore::Object& ObjectStore::materialize_object(const fs::ObjectId& oid) {
  if (Object* existing = objects_.find(oid); existing != nullptr) return *existing;
  Object& obj = objects_.get_or_create(oid);
  if (assume_populated_) {
    // The cluster is pre-filled: this object already holds data and
    // metadata from before the measurement window. (FlashStore maps no
    // physical blocks for this base data: it was written before this run.)
    obj.size = kPopulatedObjectSize;
    // Room for the head / written / tail split of the first overwrite and
    // for the two xattrs, in one allocation each.
    obj.extents.reserve(3);
    obj.xattrs.reserve(2);
    obj.extents.emplace(0, ExtentMap::make_extent(Payload::pattern(
                               kPopulatedObjectSize, ExtentMap::populated_seed(oid))));
    obj.xattrs.emplace("_", kv::Value::virt(kPopulatedXattrBytes));
    obj.xattrs.emplace("snapset", kv::Value::virt(kPopulatedSnapsetBytes));
  }
  return obj;
}

void ObjectStore::install_write(const fs::TxOp& op) {
  Object& obj = materialize_object(op.oid);
  const std::uint64_t len = op.data.size();
  cache_.insert_range(ExtentMap::object_hash(op.oid), op.offset, len);
  ExtentMap::write_extent(obj, op.offset, op.data);
  data_bytes_written_ += len;
}

void ObjectStore::install_attrs(const fs::TxOp& op) {
  Object& obj = materialize_object(op.oid);
  for (const auto& [k, v] : op.attrs) obj.xattrs[k] = v;
  cache_.insert(ExtentMap::object_hash(op.oid), kMetaPage);
}

sim::CoTask<ObjectStore::ReadResult> ObjectStore::read(const fs::ObjectId& oid,
                                                       std::uint64_t off, std::uint64_t len,
                                                       bool want_data) {
  ReadResult result;
  co_await cpu_.consume(lookup_cpu());
  const Object* obj = objects_.find(oid);
  const bool implicit = obj == nullptr && assume_populated_;
  if (obj == nullptr && !implicit) co_return result;

  const std::uint64_t obj_size = implicit ? kPopulatedObjectSize : obj->size;
  if (off >= obj_size) {
    result.found = true;
    result.length = 0;
    if (want_data) result.data.emplace();
    co_return result;
  }
  const std::uint64_t n = std::min(len, obj_size - off);

  // Charge device reads for non-resident pages.
  const std::uint64_t oh = ExtentMap::object_hash(oid);
  const std::uint64_t missing = cache_.missing_pages(oh, off, n);
  if (missing > 0) {
    co_await dev_.submit(dev::IoType::kRead, off, missing * fs::PageCache::kPageSize);
  }
  cache_.insert_range(oh, off, n);

  result.found = true;
  result.length = n;
  if (want_data) {
    if (implicit) {
      result.data = Payload::pattern(n, ExtentMap::populated_seed(oid), off).materialize();
    } else {
      result.data = ExtentMap::assemble(*obj, off, n);
    }
  }
  co_return result;
}

sim::CoTask<std::optional<kv::Value>> ObjectStore::getattr(const fs::ObjectId& oid,
                                                           const std::string& name) {
  co_await cpu_.consume(lookup_cpu());
  const std::uint64_t oh = ExtentMap::object_hash(oid);
  if (!cache_.lookup(oh, kMetaPage)) {
    metadata_device_reads_++;
    co_await read_cold_metadata(oid);
    cache_.insert(oh, kMetaPage);
  }
  const Object* obj = objects_.find(oid);
  if (obj == nullptr) {
    if (assume_populated_) {
      if (name == "_") co_return kv::Value::virt(kPopulatedXattrBytes);
      if (name == "snapset") co_return kv::Value::virt(kPopulatedSnapsetBytes);
    }
    co_return std::nullopt;
  }
  auto it = obj->xattrs.find(name);
  if (it == obj->xattrs.end()) co_return std::nullopt;
  co_return it->second;
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
