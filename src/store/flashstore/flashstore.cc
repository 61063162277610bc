#include "store/flashstore/flashstore.h"

#include <algorithm>

#include "common/stage_names.h"
#include "core/trace.h"

namespace afc::store {

FlashStore::FlashStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& wal_dev,
                       dev::Device& data_dev, kv::Db& kvdb, const Config& cfg, Hooks& hooks,
                       QueueThrottles throttles, Counters* counters,
                       bool assume_populated)
    : ObjectStore(sim, cpu, data_dev, cfg.page_cache_pages, assume_populated, hooks, throttles,
                  counters),
      kv_(kvdb),
      cfg_(cfg),
      wal_(sim, wal_dev, cfg.wal),
      alloc_(cfg.device_bytes, cfg.block_size),
      flush_idle_cv_(sim),
      kv_cv_(sim) {}

std::string FlashStore::onode_key(const fs::ObjectId& oid) {
  std::string key = "onode.";
  key += std::to_string(oid.pg);
  key += '.';
  key += oid.name();
  return key;
}

sim::CoTask<void> FlashStore::read_cold_metadata(const fs::ObjectId& oid) {
  co_await kv_.get(onode_key(oid));
}

std::uint64_t FlashStore::ensure_phys(const fs::ObjectId& oid, std::uint64_t block_off) {
  auto& pm = phys_[oid];
  auto it = pm.find(block_off);
  if (it != pm.end()) return it->second;
  const std::uint64_t phys = alloc_.allocate(cfg_.block_size);
  pm.emplace(block_off, phys);
  return phys;
}

sim::CoTask<void> FlashStore::write_blocks(const fs::ObjectId& oid, std::uint64_t off,
                                           std::uint64_t len) {
  // COW: one contiguous fresh run, written with the object's stream hint;
  // the blocks it replaces free only after the new data is durable.
  const std::uint64_t phys = alloc_.allocate(len);
  co_await dev_.submit(dev::IoType::kWrite, phys, len, stream_of(oid));
  auto& pm = phys_[oid];
  for (std::uint64_t b = 0; b < len; b += cfg_.block_size) {
    auto [it, inserted] = pm.try_emplace(off + b, phys + b);
    if (!inserted) {
      alloc_.free(it->second, cfg_.block_size);
      it->second = phys + b;
    }
  }
}

void FlashStore::register_deferred(const fs::ObjectId& oid, std::uint64_t off,
                                   std::uint64_t len, std::uint64_t seq) {
  DeferredRec& rec = deferred_[seq];
  rec.bytes += len;
  const std::uint64_t b0 = off / cfg_.block_size * cfg_.block_size;
  const std::uint64_t bend =
      (off + len + cfg_.block_size - 1) / cfg_.block_size * cfg_.block_size;
  for (std::uint64_t b = b0; b < bend; b += cfg_.block_size) {
    rec.blocks.insert({oid, b});
    deferred_blocks_[{oid, b}].insert(seq);
    // The eventual read-modify-write needs a backing block; allocating now
    // keeps the flush path free of mapping decisions.
    ensure_phys(oid, b);
  }
  deferred_pending_bytes_ += len;
}

void FlashStore::retire_block_seqs(const BlockKey& key,
                                   const std::set<std::uint64_t>& seqs,
                                   std::uint64_t* counter) {
  auto bit = deferred_blocks_.find(key);
  if (bit == deferred_blocks_.end()) return;
  for (std::uint64_t seq : seqs) {
    bit->second.erase(seq);
    auto it = deferred_.find(seq);
    if (it == deferred_.end()) continue;
    it->second.blocks.erase(key);
    if (!it->second.blocks.empty()) continue;
    // Every block this record was waiting on has been durably rewritten:
    // the payload is realized on media and leaves the flush backlog.
    deferred_pending_bytes_ -= std::min(deferred_pending_bytes_, it->second.bytes);
    it->second.bytes = 0;
    (*counter)++;
    if (it->second.kv_pending) continue;  // ring space frees once KV lands
    deferred_.erase(it);
    wal_.mark_applied(seq);
  }
  if (bit->second.empty()) deferred_blocks_.erase(bit);
}

void FlashStore::fold_block(const BlockKey& key, std::uint64_t* counter) {
  auto bit = deferred_blocks_.find(key);
  if (bit == deferred_blocks_.end()) return;
  const std::set<std::uint64_t> seqs = bit->second;
  retire_block_seqs(key, seqs, counter);
}

void FlashStore::fold_covered(const fs::ObjectId& oid, std::uint64_t off,
                              std::uint64_t len) {
  if (deferred_blocks_.empty()) return;
  const std::uint64_t b0 = off / cfg_.block_size * cfg_.block_size;
  for (auto it = deferred_blocks_.lower_bound({oid, b0});
       it != deferred_blocks_.end() && it->first.first == oid &&
       it->first.second < off + len;) {
    const BlockKey key = it->first;
    ++it;  // fold_block erases exactly this entry
    fold_block(key, &deferred_folds_);
  }
}

void FlashStore::maybe_flush_deferred() {
  if (flush_running_ || deferred_pending_bytes_ < cfg_.deferred_flush_bytes) return;
  flush_running_ = true;
  sim::spawn_fn([this]() -> sim::CoTask<void> {
    co_await flush_deferred(cfg_.deferred_flush_bytes / 2);
    flush_running_ = false;
    flush_idle_cv_.notify_all();
  });
}

sim::CoTask<void> FlashStore::flush_deferred(std::uint64_t floor) {
  // Oldest record first, `flush_iodepth` in-place rewrites in flight at
  // once — the drive's channels absorb them, so the flush keeps pace with
  // the deferred ingest rate instead of serializing one program at a time.
  while (!deferred_.empty() && deferred_pending_bytes_ > floor) {
    if (flush_inflight_.size() >= cfg_.flush_iodepth) {
      co_await flush_idle_cv_.wait();
      continue;
    }
    BlockKey key{};
    bool found = false;
    for (const auto& [seq, rec] : deferred_) {
      for (const BlockKey& k : rec.blocks) {
        if (!flush_inflight_.contains(k)) {
          key = k;
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) {
      // Every pending block is already on the device; wait for a landing.
      if (flush_inflight_.empty()) break;  // ledger cleared under us (crash)
      co_await flush_idle_cv_.wait();
      continue;
    }
    flush_inflight_.insert(key);
    sim::spawn(flush_block(key));
  }
  while (!flush_inflight_.empty()) co_await flush_idle_cv_.wait();
}

sim::CoTask<void> FlashStore::flush_block(BlockKey key) {
  // Snapshot the records waiting on this block now: a write that registers
  // *while* the device program is in flight is newer than the data going to
  // media and must keep its WAL record.
  auto bit = deferred_blocks_.find(key);
  if (bit == deferred_blocks_.end()) {
    // Folded away (direct overwrite / object removal) between dispatch and
    // start — nothing left to make durable.
    flush_inflight_.erase(key);
    flush_idle_cv_.notify_all();
    co_return;
  }
  const std::set<std::uint64_t> snapshot = bit->second;
  co_await charge_cpu(cfg_.flush_submit_cpu);
  const std::uint64_t phys = ensure_phys(key.first, key.second);
  co_await dev_.submit(dev::IoType::kWrite, phys, cfg_.block_size, stream_of(key.first));
  retire_block_seqs(key, snapshot, &deferred_flushes_);
  flush_inflight_.erase(key);
  flush_idle_cv_.notify_all();
}

sim::CoTask<void> FlashStore::admit(std::uint64_t bytes) {
  co_await throttles_.ops.acquire(1);
  co_await throttles_.bytes.acquire(bytes);
}

sim::CoTask<bool> FlashStore::queue_transaction(fs::Transaction tx, std::uint64_t bytes,
                                                bool /*lightweight*/, OpRef op) {
  const fs::ObjectId& oid = tx.ops().front().oid;
  note_apply_queued(oid);
  if (closing_) co_return false;
  applies_++;
  const Time t0 = sim_.now();

  // Phase 1 — data: COW device writes for large aligned extents, before
  // the commit record. Torn data is invisible: the mapping only becomes
  // real when the WAL record commits. Deferred payloads (sub-block, or
  // aligned below prefer_deferred_bytes) ride the WAL record instead — the
  // ack path pays one NVRAM program, never an SSD program.
  std::uint64_t wal_bytes = cfg_.wal_meta_bytes;
  for (const auto& op : tx.ops()) {
    if (op.type != fs::TxOpType::kWrite) continue;
    const std::uint64_t len = op.data.size();
    if (len == 0) continue;
    if (!use_deferred(op.offset, len)) {
      co_await charge_cpu(cfg_.alloc_cpu);
      co_await write_blocks(op.oid, op.offset, len);
    } else {
      wal_bytes += len;  // deferred payload rides the WAL record
    }
  }

  // Phase 2 — the commit record (durability point).
  co_await wal_.reserve(wal_bytes);
  const std::uint64_t seq = co_await wal_.write_entry(wal_bytes, tx.encode(), tx.trace);
  if (seq == 0) {
    wal_.release(wal_bytes);
    co_return false;  // closing mid-write: nothing durable, the op must not ack
  }

  // Phase 3 — install, synchronously and in WAL-commit order: extents,
  // xattrs, deferred ledger. No suspension until every content mutation of
  // this transaction has landed, so concurrent transactions can never
  // interleave within one object.
  KvTxn meta;
  meta.seq = seq;
  std::uint64_t deferred_bytes = 0;
  std::set<std::string> onodes;
  std::vector<const fs::TxOp*> rmranges;
  for (const auto& op : tx.ops()) {
    switch (op.type) {
      case fs::TxOpType::kWrite: {
        const std::uint64_t len = op.data.size();
        if (len == 0) break;
        install_write(op);
        if (!use_deferred(op.offset, len)) {
          // Fresh durable blocks under this range: deferred records that
          // were only waiting on them are superseded and retire.
          fold_covered(op.oid, op.offset, len);
        } else {
          register_deferred(op.oid, op.offset, len, seq);
          deferred_bytes += len;
        }
        onodes.insert(onode_key(op.oid));
        break;
      }
      case fs::TxOpType::kOmapSetKeys:
        for (const auto& [k, v] : op.omap) meta.puts.emplace_back(k, v);
        break;
      case fs::TxOpType::kOmapRmKeyRange:
        rmranges.push_back(&op);
        break;
      case fs::TxOpType::kSetAttrs:
        install_attrs(op);
        onodes.insert(onode_key(op.oid));
        break;
      case fs::TxOpType::kSetAllocHint:
        break;  // raw-device store: no filesystem to hint
    }
  }

  // Phase 4 — metadata: onodes + omap, handed to the single KV finalizer,
  // which merges up to kv_batch_max transactions into one atomic KV batch
  // (FileStore pays the same cost in its apply stage, also off the ack
  // path). Durability holds throughout: the WAL record replays until the
  // batch commits — mark_applied fires only after.
  for (const auto& k : onodes)
    meta.puts.emplace_back(k, kv::Value::virt(std::uint32_t(cfg_.onode_bytes)));
  meta.rms.reserve(rmranges.size());
  for (const fs::TxOp* op : rmranges) meta.rms.emplace_back(op->range_lo, op->range_hi);

  const bool has_deferred = deferred_bytes > 0;
  meta.has_deferred = has_deferred;
  if (has_deferred) {
    deferred_[seq].kv_pending = true;
    deferred_writes_++;
  }
  meta_inflight_++;
  kv_queue_.push_back(std::move(meta));
  kv_cv_.notify_all();
  if (!kv_loop_running_) {
    kv_loop_running_ = true;
    sim::spawn(kv_finalize_loop());
  }
  if (has_deferred) maybe_flush_deferred();
  if (auto* tr = trace::Collector::active(); tr != nullptr && tx.trace.valid()) {
    tr->complete(tx.trace, tr->stage_id(stage::kFsApply), t0, sim_.now());
  }
  // Durable and applied in one round trip: release what the commit held,
  // then the hook. No apply pass follows, so no record is left to retire.
  throttles_.ops.release(1);
  throttles_.bytes.release(bytes);
  note_apply_done(oid);
  co_await hooks_.on_commit(op);
  co_return true;
}

sim::CoTask<void> FlashStore::kv_finalize_loop() {
  // BlueStore's kv_sync_thread: ONE background finalizer drains the queued
  // per-transaction metadata in merged batches. One KV WAL record per group
  // (not per transaction) and the LSM's per-batch CPU amortizes; repeated
  // keys inside the window (a hot PG's info key, a hot object's onode)
  // collapse last-writer-wins before they ever reach the memtable.
  for (;;) {
    while (kv_queue_.empty()) {
      if (closing_) {
        kv_loop_running_ = false;
        co_return;
      }
      co_await kv_cv_.wait();
    }
    if (cfg_.kv_commit_interval > 0 && !closing_ &&
        kv_queue_.size() < cfg_.kv_batch_max) {
      // Let a group form (BlueStore commits at kv_sync cadence, not per
      // transaction); under load the queue fills to kv_batch_max here.
      co_await sim::delay(sim_, cfg_.kv_commit_interval, "flashstore.kv_interval");
    }
    std::vector<KvTxn> txns;
    while (!kv_queue_.empty() && txns.size() < cfg_.kv_batch_max) {
      txns.push_back(std::move(kv_queue_.front()));
      kv_queue_.pop_front();
    }
    const std::uint64_t epoch = crash_epoch_;
    // Per-transaction bookkeeping CPU rides here, off the ack path — the
    // same accounting position as FileStore's apply stage.
    co_await charge_cpu(cfg_.apply_cpu * Time(txns.size()));
    kv::WriteBatch batch;
    for (auto& t : txns) {
      for (auto& [lo, hi] : t.rms) {
        auto keys = co_await kv_.range_keys(lo, hi, 4096);
        for (auto& k : keys) batch.del(std::move(k));
      }
    }
    std::unordered_map<std::string, std::size_t> last;
    std::vector<std::pair<std::string, kv::Value>> puts;
    for (auto& t : txns) {
      for (auto& [k, v] : t.puts) {
        if (auto it = last.find(k); it != last.end()) {
          puts[it->second].second = std::move(v);  // superseded within the group
        } else {
          last.emplace(k, puts.size());
          puts.emplace_back(std::move(k), std::move(v));
        }
      }
    }
    for (auto& [k, v] : puts) batch.put(std::move(k), std::move(v));
    if (batch.size() > 0) co_await kv_.write(std::move(batch));
    if (epoch != crash_epoch_) continue;  // crashed mid-batch: records replay
    for (const KvTxn& t : txns) {
      if (!t.has_deferred) {
        wal_.mark_applied(t.seq);  // data durable in Phase 1, metadata now too
      } else if (auto it = deferred_.find(t.seq);
                 it != deferred_.end() && it->second.kv_pending) {
        it->second.kv_pending = false;
        if (it->second.blocks.empty()) {
          // The flush finished while the batch was in flight; retire now.
          deferred_.erase(it);
          wal_.mark_applied(t.seq);
        }
      }
      meta_inflight_--;
    }
    flush_idle_cv_.notify_all();
  }
}

sim::CoTask<void> FlashStore::apply_transaction(const fs::Transaction& tx,
                                                bool /*lightweight*/) {
  applies_++;
  const Time t0 = sim_.now();
  co_await charge_cpu(cfg_.apply_cpu);

  // Content install first, synchronously (same atomicity as the commit
  // path); device and KV charges follow.
  kv::WriteBatch batch;
  batch.trace = tx.trace;
  struct DataOp {
    fs::ObjectId oid;
    std::uint64_t off = 0;
    std::uint64_t len = 0;
    bool aligned = false;
  };
  std::vector<DataOp> data_ops;
  std::set<std::string> onodes;
  std::vector<const fs::TxOp*> rmranges;
  for (const auto& op : tx.ops()) {
    switch (op.type) {
      case fs::TxOpType::kWrite: {
        const std::uint64_t len = op.data.size();
        if (len == 0) break;
        install_write(op);
        data_ops.push_back({op.oid, op.offset, len, is_aligned(op.offset, len)});
        onodes.insert(onode_key(op.oid));
        break;
      }
      case fs::TxOpType::kOmapSetKeys:
        for (const auto& [k, v] : op.omap) batch.put(k, v);
        break;
      case fs::TxOpType::kOmapRmKeyRange:
        rmranges.push_back(&op);
        break;
      case fs::TxOpType::kSetAttrs:
        install_attrs(op);
        onodes.insert(onode_key(op.oid));
        break;
      case fs::TxOpType::kSetAllocHint:
        break;
    }
  }

  // Data charges: aligned ranges go COW; sub-block payloads rewrite their
  // covering blocks in place, exactly as a deferred flush would (this path
  // serves WAL replay and recovery imports, where the payload goes
  // straight to media — nothing is re-deferred).
  for (const DataOp& d : data_ops) {
    co_await charge_cpu(cfg_.alloc_cpu);
    if (d.aligned) {
      co_await write_blocks(d.oid, d.off, d.len);
      fold_covered(d.oid, d.off, d.len);
    } else {
      const std::uint64_t b0 = d.off / cfg_.block_size * cfg_.block_size;
      const std::uint64_t bend =
          (d.off + d.len + cfg_.block_size - 1) / cfg_.block_size * cfg_.block_size;
      for (std::uint64_t b = b0; b < bend; b += cfg_.block_size) {
        const std::uint64_t phys = ensure_phys(d.oid, b);
        co_await dev_.submit(dev::IoType::kWrite, phys, cfg_.block_size,
                             stream_of(d.oid));
      }
      fold_covered(d.oid, b0, bend - b0);
    }
  }

  for (const auto& k : onodes)
    batch.put(k, kv::Value::virt(std::uint32_t(cfg_.onode_bytes)));
  for (const fs::TxOp* op : rmranges) {
    auto keys = co_await kv_.range_keys(op->range_lo, op->range_hi, 4096);
    for (auto& k : keys) batch.del(std::move(k));
  }
  if (batch.size() > 0) co_await kv_.write(std::move(batch));

  if (auto* tr = trace::Collector::active(); tr != nullptr && tx.trace.valid()) {
    tr->complete(tx.trace, tr->stage_id(stage::kFsApply), t0, sim_.now());
  }
}

void FlashStore::remove_object(const fs::ObjectId& oid) {
  ObjectStore::remove_object(oid);
  auto pit = phys_.find(oid);
  if (pit != phys_.end()) {
    for (const auto& [lb, pb] : pit->second) alloc_.free(pb, cfg_.block_size);
    phys_.erase(pit);
  }
  // Deferred records pending on this object are moot — the object is being
  // replaced wholesale (recovery) and the importer rewrites everything.
  for (auto it = deferred_blocks_.lower_bound({oid, 0});
       it != deferred_blocks_.end() && it->first.first == oid;) {
    const BlockKey key = it->first;
    ++it;  // fold_block erases exactly this entry
    fold_block(key, &deferred_folds_);
  }
}

void FlashStore::on_daemon_crash() {
  // The deferred ledger and the queued KV finalizer work are daemon RAM:
  // gone. The WAL records they tracked stay durable on media — restart
  // replays them (their sub-block payloads are rewritten in place by
  // apply_transaction) and the OSD's replay loop then retires them. The
  // epoch bump stops a finalizer group popped before the crash from
  // retiring records afterwards.
  deferred_.clear();
  deferred_blocks_.clear();
  deferred_pending_bytes_ = 0;
  kv_queue_.clear();
  meta_inflight_ = 0;
  crash_epoch_++;
  flush_idle_cv_.notify_all();
}

void FlashStore::close() {
  closing_ = true;
  wal_.close();
  kv_cv_.notify_all();
}

sim::CoTask<void> FlashStore::drain() {
  while (meta_inflight_ > 0) co_await flush_idle_cv_.wait();
  co_await flush_deferred(0);
  while (flush_running_ || !flush_inflight_.empty() || meta_inflight_ > 0) {
    co_await flush_idle_cv_.wait();
  }
}

}  // namespace afc::store
