#include "store/flashstore/flashstore.h"

#include <algorithm>
#include <set>

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
  auto [it, inserted] = phys_[oid.key()].emplace(block_off, 0);
  if (inserted) it->second = alloc_.allocate(cfg_.block_size);
  return it->second;
}

sim::CoTask<void> FlashStore::write_blocks(const fs::ObjectId& oid, std::uint64_t off,
                                           std::uint64_t len) {
  // COW: one contiguous fresh run, written with the object's stream hint;
  // the blocks it replaces free only after the new data is durable.
  const std::uint64_t phys = alloc_.allocate(len);
  co_await dev_.submit(dev::IoType::kWrite, phys, len, stream_of(oid));
  auto& pm = phys_[oid.key()];
  for (std::uint64_t b = 0; b < len; b += cfg_.block_size) {
    auto [it, inserted] = pm.emplace(off + b, phys + b);
    if (!inserted) {
      alloc_.free(it->second, cfg_.block_size);
      it->second = phys + b;
    }
  }
}

FlashStore::DeferredBlock* FlashStore::find_block(const BlockKey& key) {
  const std::uint32_t h = block_hash(key);
  const std::size_t i =
      blocks_.find(h, [&](const DeferredBlock& b) { return b.hash == h && b.key == key; });
  return i == blocks_.npos ? nullptr : &blocks_[i];
}

FlashStore::DeferredRec& FlashStore::make_record(std::uint64_t seq) {
  if (records_.empty()) records_base_ = seq;
  for (; seq < records_base_; records_base_--) records_.push_front(DeferredRec{});
  while (seq - records_base_ >= records_.size()) records_.push_back(DeferredRec{});
  DeferredRec& rec = records_[seq - records_base_];
  if (!rec.live) {
    rec.live = true;
    records_live_++;
  }
  return rec;
}

void FlashStore::drop_record(std::uint64_t seq) {
  records_[seq - records_base_] = DeferredRec{};
  records_live_--;
  for (; !records_.empty() && !records_[0].live; records_base_++) records_.pop_front();
}

void FlashStore::add_link(DeferredRec& rec, std::uint64_t seq, const BlockKey& key) {
  const std::uint32_t h = block_hash(key);
  const auto p =
      blocks_.probe(h, [&](const DeferredBlock& b) { return b.hash == h && b.key == key; });
  DeferredBlock& blk = p.found ? blocks_[p.slot] : blocks_.claim(h, p);
  if (!p.found) blk = DeferredBlock{key, h};
  // Keep the block's list in ascending seq order: a new record appends, and
  // a record already on the list (a transaction writing the block twice)
  // is not added again.
  std::uint32_t prev = blk.tail;
  std::uint32_t next = kNil;
  if (prev != kNil && links_[prev].seq >= seq) {
    prev = kNil;
    next = blk.head;
    while (links_[next].seq < seq) {
      prev = next;
      next = links_[next].next_in_block;
    }
    if (links_[next].seq == seq) return;
  }
  std::uint32_t l = free_link_;
  if (l == kNil) {
    l = std::uint32_t(links_.size());
    links_.emplace_back();
  } else {
    free_link_ = links_[l].next_in_block;
  }
  links_[l] = Link{key, seq, rec.links, next};
  rec.links = l;
  (prev == kNil ? blk.head : links_[prev].next_in_block) = l;
  if (next == kNil) blk.tail = l;
  flush_scan_ = std::min(flush_scan_, seq);
}

void FlashStore::drop_link(std::uint32_t l) {
  const Link& link = links_[l];
  DeferredRec* rec = find_record(link.seq);
  std::uint32_t* at = &rec->links;
  while (*at != l) at = &links_[*at].next_in_record;
  *at = link.next_in_record;
  links_[l].next_in_block = free_link_;
  free_link_ = l;
}

void FlashStore::register_deferred(const fs::ObjectId& oid, std::uint64_t off,
                                   std::uint64_t len, std::uint64_t seq) {
  DeferredRec& rec = make_record(seq);
  rec.bytes += len;
  const std::uint64_t b0 = off / cfg_.block_size * cfg_.block_size;
  const std::uint64_t bend =
      (off + len + cfg_.block_size - 1) / cfg_.block_size * cfg_.block_size;
  for (std::uint64_t b = b0; b < bend; b += cfg_.block_size) {
    add_link(rec, seq, BlockKey{oid, b});
    // The eventual read-modify-write needs a backing block; allocating now
    // keeps the flush path free of mapping decisions.
    ensure_phys(oid, b);
  }
  deferred_pending_bytes_ += len;
}

void FlashStore::retire_block_seqs(const BlockKey& key, const std::vector<std::uint64_t>& seqs,
                                   std::uint64_t* counter) {
  DeferredBlock* blk = find_block(key);
  if (blk == nullptr || blk->head == kNil) return;
  // One merge walk: the block's list and `seqs` are both ascending. A seq
  // of the snapshot that left the block since (a fold) is still visited.
  std::uint32_t prev = kNil;
  std::uint32_t cur = blk->head;
  for (std::uint64_t seq : seqs) {
    while (cur != kNil && links_[cur].seq < seq) {
      prev = cur;
      cur = links_[cur].next_in_block;
    }
    if (cur != kNil && links_[cur].seq == seq) {
      const std::uint32_t next = links_[cur].next_in_block;
      (prev == kNil ? blk->head : links_[prev].next_in_block) = next;
      if (blk->tail == cur) blk->tail = prev;
      drop_link(cur);
      cur = next;
    }
    DeferredRec* rec = find_record(seq);
    if (rec == nullptr || rec->links != kNil) continue;
    // Every block this record was waiting on has been durably rewritten:
    // the payload is realized on media and leaves the flush backlog.
    deferred_pending_bytes_ -= std::min(deferred_pending_bytes_, rec->bytes);
    rec->bytes = 0;
    (*counter)++;
    if (rec->kv_pending) continue;  // ring space frees once KV lands
    drop_record(seq);
    wal_.mark_applied(seq);
  }
  if (blk->head == kNil && !blk->inflight) {
    blocks_.erase_at(std::size_t(blk - &blocks_[0]));
  }
}

void FlashStore::fold_block(const BlockKey& key, std::uint64_t* counter) {
  const DeferredBlock* blk = find_block(key);
  if (blk == nullptr) return;
  fold_seqs_.clear();
  for (std::uint32_t l = blk->head; l != kNil; l = links_[l].next_in_block) {
    fold_seqs_.push_back(links_[l].seq);
  }
  retire_block_seqs(key, fold_seqs_, counter);
}

void FlashStore::fold_covered(const fs::ObjectId& oid, std::uint64_t off,
                              std::uint64_t len) {
  if (blocks_.size() == 0) return;
  for (std::uint64_t b = off / cfg_.block_size * cfg_.block_size; b < off + len;
       b += cfg_.block_size) {
    fold_block(BlockKey{oid, b}, &deferred_folds_);
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

bool FlashStore::pick_flush_block(BlockKey& key) {
  std::uint64_t seq = std::max(flush_scan_, records_base_);
  for (; seq - records_base_ < records_.size(); seq++) {
    const DeferredRec& rec = records_[seq - records_base_];
    bool found = false;
    for (std::uint32_t l = rec.links; l != kNil; l = links_[l].next_in_record) {
      const BlockKey& k = links_[l].key;
      if ((!found || k < key) && !find_block(k)->inflight) {
        key = k;
        found = true;
      }
    }
    if (found) {
      flush_scan_ = seq;
      return true;
    }
  }
  flush_scan_ = seq;
  return false;
}

sim::CoTask<void> FlashStore::flush_deferred(std::uint64_t floor) {
  // Oldest record first, `flush_iodepth` in-place rewrites in flight at
  // once — the drive's channels absorb them, so the flush keeps pace with
  // the deferred ingest rate instead of serializing one program at a time.
  while (records_live_ > 0 && deferred_pending_bytes_ > floor) {
    if (flush_inflight_ >= cfg_.flush_iodepth) {
      co_await flush_idle_cv_.wait();
      continue;
    }
    BlockKey key;
    if (!pick_flush_block(key)) {
      // Every pending block is already on the device; wait for a landing.
      if (flush_inflight_ == 0) break;  // ledger cleared under us (crash)
      co_await flush_idle_cv_.wait();
      continue;
    }
    find_block(key)->inflight = true;
    flush_inflight_++;
    sim::spawn(flush_block(key));
  }
  while (flush_inflight_ > 0) co_await flush_idle_cv_.wait();
}

void FlashStore::end_flush(const BlockKey& key) {
  DeferredBlock* blk = find_block(key);
  blk->inflight = false;
  if (blk->head == kNil) blocks_.erase_at(std::size_t(blk - &blocks_[0]));
  flush_inflight_--;
  flush_scan_ = 0;  // the block's records may be pickable again
  flush_idle_cv_.notify_all();
}

sim::CoTask<void> FlashStore::flush_block(BlockKey key) {
  // Snapshot the records waiting on this block now: a write that registers
  // *while* the device program is in flight is newer than the data going to
  // media and must keep its WAL record.
  const DeferredBlock* blk = find_block(key);
  if (blk->head == kNil) {
    // Folded away (direct overwrite / object removal) between dispatch and
    // start — nothing left to make durable.
    end_flush(key);
    co_return;
  }
  std::vector<std::uint64_t> snapshot;
  for (std::uint32_t l = blk->head; l != kNil; l = links_[l].next_in_block) {
    snapshot.push_back(links_[l].seq);
  }
  co_await charge_cpu(cfg_.flush_submit_cpu);
  const std::uint64_t phys = ensure_phys(key.oid, key.off);
  co_await dev_.submit(dev::IoType::kWrite, phys, cfg_.block_size, stream_of(key.oid));
  retire_block_seqs(key, snapshot, &deferred_flushes_);
  end_flush(key);
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
    // A direct write later in the transaction may have folded the record
    // away already; it comes back empty, to retire when the KV batch lands.
    make_record(seq).kv_pending = true;
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
      } else if (DeferredRec* rec = find_record(t.seq); rec != nullptr && rec->kv_pending) {
        rec->kv_pending = false;
        if (rec->links == kNil) {
          // The flush finished while the batch was in flight; retire now.
          drop_record(t.seq);
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
  FlatMap<std::uint64_t, std::uint64_t> blocks;
  if (auto* pm = phys_.find(oid.key()); pm != nullptr) {
    blocks = std::move(*pm);
    phys_.erase(oid.key());
    for (const auto& [lb, pb] : blocks) alloc_.free(pb, cfg_.block_size);
  }
  // Deferred records pending on this object are moot — the object is being
  // replaced wholesale (recovery) and the importer rewrites everything.
  // Every block they wait on is mapped, so the map names them all.
  for (const auto& [lb, pb] : blocks) fold_block(BlockKey{oid, lb}, &deferred_folds_);
}

void FlashStore::on_daemon_crash() {
  // The deferred ledger and the queued KV finalizer work are daemon RAM:
  // gone. The WAL records they tracked stay durable on media — restart
  // replays them (their sub-block payloads are rewritten in place by
  // apply_transaction) and the OSD's replay loop then retires them. The
  // epoch bump stops a finalizer group popped before the crash from
  // retiring records afterwards. Rewrites already on the device keep their
  // blocks' in-flight flags until they land.
  std::vector<BlockKey> inflight;
  for (const DeferredBlock& b : blocks_.slots()) {
    if (!DeferredBlock::Traits::empty(b) && b.inflight) inflight.push_back(b.key);
  }
  blocks_.clear();
  for (const BlockKey& key : inflight) {
    const std::uint32_t h = block_hash(key);
    blocks_.claim(h) = DeferredBlock{key, h, kNil, kNil, true};
  }
  links_.clear();
  free_link_ = kNil;
  records_.clear();
  records_live_ = 0;
  flush_scan_ = 0;
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
  while (flush_running_ || flush_inflight_ > 0 || meta_inflight_ > 0) {
    co_await flush_idle_cv_.wait();
  }
}

}  // namespace afc::store
