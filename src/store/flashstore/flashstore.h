#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "fs/journal.h"
#include "fs/transaction.h"
#include "kv/db.h"
#include "sim/cpu.h"
#include "store/extent_allocator.h"
#include "store/object_store.h"

namespace afc::store {

/// Raw-device object store in the BlueStore / PureFlash mould: no filesystem
/// underneath, so no syscall tax and — crucially — no journal double-write.
///
///  * Data lives in block extents handed out by an ExtentAllocator over the
///    raw SSD. A block-aligned write is COW: allocate fresh blocks, write
///    them with the object's stream hint, commit the mapping; the old
///    blocks free. The data never passes through a journal.
///  * A small WAL (the same crash-consistent CRC32C ring as fs::Journal, on
///    the NVRAM device) carries a per-transaction metadata record plus the
///    payload of *deferred* writes: sub-block updates, and aligned writes
///    below `prefer_deferred_bytes` (BlueStore's prefer_deferred_size — for
///    small writes one NVRAM program beats an SSD program in the ack path).
///    A deferred write becomes durable at WAL commit and its media write is
///    deferred: it folds into the next direct rewrite of the same block, or
///    is flushed in place — stream-hinted, `flush_iodepth` blocks in flight
///    — when the deferred backlog passes a threshold.
///  * Object metadata (onode: object→extent map, size, per-object CRCs)
///    rides the existing LSM KV alongside omap/PG-log data, batched per
///    transaction.
///  * Every data write carries a per-object stream hint, so a multi-stream
///    SsdModel segregates object lifetimes and charges less GC.
///
/// Crash consistency: queue_transaction() resumes only after the WAL record
/// is durable; on_daemon_crash() drops the RAM deferred ledger, and restart
/// replays unapplied WAL records through apply_transaction()
/// (ObjectStore::replay(), the same loop FileStore's journal goes through).
class FlashStore final : public ObjectStore {
 public:
  struct Config {
    std::uint64_t block_size = 4096;
    /// Allocator pool over the data SSD. A working-set bound for the
    /// allocator map, not a capacity simulation (see ExtentAllocator).
    std::uint64_t device_bytes = 8 * kGiB;
    Time apply_cpu = 1200;   // per-txn finalize residue: extent/onode
                             // mutation is charged per data op (alloc_cpu);
                             // no filesystem namespace work, no syscalls
    Time alloc_cpu = 700;    // allocator + onode mutation, per data op
    Time read_cpu = 1500;    // per-read bookkeeping
    /// Deferred flush: the block is already allocated (ensure_phys at
    /// registration), so the rewrite costs an aio submit, not allocator work.
    Time flush_submit_cpu = 300;
    double cpu_multiplier = 1.0;  // allocator tax
    std::size_t page_cache_pages = 65536;  // RAM-resident object data
    unsigned write_streams = 8;   // per-object stream hints (0 = no hints)
    std::uint64_t onode_bytes = 160;       // KV payload per onode update
    std::uint64_t wal_meta_bytes = 256;    // WAL record metadata portion
    std::uint64_t deferred_flush_bytes = 1 * kMiB;  // flush threshold
    /// Aligned writes strictly smaller than this also go deferred
    /// (BlueStore's prefer_deferred_size): the payload commits in one NVRAM
    /// WAL write — microseconds, not an SSD program — and folds to the data
    /// device in the background with the object's stream hint. Large writes
    /// stay COW-direct, where skipping the double-write is the whole win.
    /// 0 = every aligned write is direct.
    std::uint64_t prefer_deferred_bytes = 32 * 1024;
    /// Background-flush concurrency: in-place block rewrites kept in
    /// flight at once (the drive's channels absorb them).
    unsigned flush_iodepth = 16;
    /// KV finalizer batching (BlueStore's kv_sync_thread): up to this many
    /// transactions' onode/omap updates merge into ONE atomic KV batch —
    /// one KV WAL record instead of one per transaction, and the LSM's
    /// per-batch CPU amortizes across the group.
    unsigned kv_batch_max = 16;
    /// How long the finalizer lets metadata accumulate before each merged
    /// commit. Off the ack path (the WAL record is already durable); the
    /// only cost is WAL records staying replayable a little longer.
    Time kv_commit_interval = 1 * kMillisecond;
    /// Deferred-write WAL ring (on the NVRAM device). Small on purpose:
    /// only sub-block payloads and per-txn metadata records live here.
    fs::Journal::Config wal{128 * kMiB, 512, 32};
  };

  FlashStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& wal_dev,
             dev::Device& data_dev, kv::Db& kvdb, const Config& cfg, Hooks& hooks,
             QueueThrottles throttles, Counters* counters, bool assume_populated);

  /// Queue throttles only: WAL space is reserved inside the commit, sized
  /// by what actually rides the record.
  sim::CoTask<void> admit(std::uint64_t bytes) override;
  /// The commit: COW data writes for aligned extents, one WAL record for
  /// metadata + sub-block payloads, one KV batch for onode/omap. Durable
  /// AND applied when on_commit runs; no apply pass, no on_applied.
  sim::CoTask<bool> queue_transaction(fs::Transaction tx, std::uint64_t bytes, bool lightweight,
                                      OpRef op) override;

  /// Direct install, no WAL record: WAL replay after a crash, recovery
  /// imports, scrub repair. Charges the same CPU, allocation and device
  /// writes as the commit path's data phase.
  sim::CoTask<void> apply_transaction(const fs::Transaction& tx,
                                      bool lightweight) override;

  /// Also frees the object's physical blocks and folds its deferred records.
  void remove_object(const fs::ObjectId& oid) override;

  fs::Journal* wal() override { return &wal_; }
  void on_daemon_crash() override;

  void close() override;
  sim::CoTask<void> drain() override;

  std::uint64_t dirty_bytes() const override { return deferred_pending_bytes_; }

  std::uint64_t deferred_writes() const { return deferred_writes_; }
  std::uint64_t deferred_folds() const { return deferred_folds_; }
  std::uint64_t deferred_flushes() const { return deferred_flushes_; }
  std::uint64_t deferred_pending() const { return deferred_.size(); }

 private:
  using BlockKey = std::pair<fs::ObjectId, std::uint64_t>;  // (object, block off)

  /// Per-read bookkeeping.
  Time lookup_cpu() override { return cpu_time(cfg_.read_cpu); }
  /// One onode KV point lookup (block cache / SSTables charge their own
  /// device reads) instead of FileStore's inode page read.
  sim::CoTask<void> read_cold_metadata(const fs::ObjectId& oid) override;

  bool is_aligned(std::uint64_t off, std::uint64_t len) const {
    return len >= cfg_.block_size && off % cfg_.block_size == 0 &&
           len % cfg_.block_size == 0;
  }
  /// Whether a write's payload rides the WAL (deferred) or goes straight to
  /// a COW extent before the commit record (direct).
  bool use_deferred(std::uint64_t off, std::uint64_t len) const {
    return !is_aligned(off, len) || len < cfg_.prefer_deferred_bytes;
  }
  unsigned stream_of(const fs::ObjectId& oid) const {
    if (cfg_.write_streams == 0) return 0;
    return 1 + unsigned(ExtentMap::object_hash(oid) % cfg_.write_streams);
  }
  static std::string onode_key(const fs::ObjectId& oid);
  Time cpu_time(Time t) const { return Time(double(t) * cfg_.cpu_multiplier); }
  sim::CpuPool::Consume charge_cpu(Time t) { return cpu_.consume(cpu_time(t)); }

  /// COW write of aligned blocks: allocate, device-write with the stream
  /// hint, swap the physical mapping (old blocks free).
  sim::CoTask<void> write_blocks(const fs::ObjectId& oid, std::uint64_t off,
                                 std::uint64_t len);
  /// Physical block backing a logical block, allocating on first touch
  /// (deferred flush into a hole / populated base data).
  std::uint64_t ensure_phys(const fs::ObjectId& oid, std::uint64_t block_off);

  /// Register `seq`'s sub-block payload as deferred on its covering blocks.
  void register_deferred(const fs::ObjectId& oid, std::uint64_t off,
                         std::uint64_t len, std::uint64_t seq);
  /// The block is durably rewritten for `seqs` (a snapshot taken when the
  /// rewrite was issued): drop the block from each record, retiring records
  /// left with nothing pending. `counter` attributes the retirement.
  void retire_block_seqs(const BlockKey& key, const std::set<std::uint64_t>& seqs,
                         std::uint64_t* counter);
  /// A durable rewrite covered this block: retire every WAL record that was
  /// only waiting on it. `counter` attributes the retirement (fold/flush).
  void fold_block(const BlockKey& key, std::uint64_t* counter);
  void fold_covered(const fs::ObjectId& oid, std::uint64_t off, std::uint64_t len);
  void maybe_flush_deferred();
  /// Drive the deferred backlog below `floor` via in-place rewrites, up to
  /// `flush_iodepth` blocks in flight at once.
  sim::CoTask<void> flush_deferred(std::uint64_t floor);
  /// One in-flight block rewrite: device write, then retire the records
  /// that were waiting on the block when the write was issued.
  sim::CoTask<void> flush_block(BlockKey key);
  /// The single KV finalizer (BlueStore's kv_sync_thread): drains queued
  /// per-transaction metadata into merged atomic KV batches, then retires
  /// the WAL records whose only outstanding obligation was the KV commit.
  sim::CoTask<void> kv_finalize_loop();

  kv::Db& kv_;
  Config cfg_;
  fs::Journal wal_;
  ExtentAllocator alloc_;

  /// logical block offset -> physical block offset, per object. Only
  /// explicitly written blocks are mapped; implicit populated base data is
  /// conceptually outside the allocator pool.
  std::unordered_map<fs::ObjectId, std::map<std::uint64_t, std::uint64_t>,
                     fs::ObjectIdHash>
      phys_;

  /// Deferred-write ledger (RAM; lost on crash, rebuilt by WAL replay).
  struct DeferredRec {
    std::uint64_t bytes = 0;
    std::set<BlockKey> blocks;  // covering blocks not yet rewritten
    /// The transaction's KV batch is still in flight: even with every block
    /// durable, the record must stay replayable until the batch commits.
    bool kv_pending = false;
  };
  std::map<std::uint64_t, DeferredRec> deferred_;  // WAL seq -> record
  std::map<BlockKey, std::set<std::uint64_t>> deferred_blocks_;
  std::uint64_t deferred_pending_bytes_ = 0;
  bool flush_running_ = false;
  /// Blocks with an in-place rewrite currently on the device (each spawned
  /// flush_block owns its entry until the write lands).
  std::set<BlockKey> flush_inflight_;
  sim::CondVar flush_idle_cv_;

  /// Commit-path Phase 4 metadata, queued for the single KV finalizer.
  struct KvTxn {
    std::uint64_t seq = 0;
    bool has_deferred = false;
    std::vector<std::pair<std::string, kv::Value>> puts;       // onode + omap
    std::vector<std::pair<std::string, std::string>> rms;      // omap trims
  };
  std::deque<KvTxn> kv_queue_;
  sim::CondVar kv_cv_;
  bool kv_loop_running_ = false;
  /// Transactions whose KV batch has not yet committed (queued + in loop).
  std::uint64_t meta_inflight_ = 0;
  /// Bumped by on_daemon_crash(): finalizer work popped before the crash
  /// must not retire WAL records afterwards (they have to replay).
  std::uint64_t crash_epoch_ = 0;

  bool closing_ = false;
  std::uint64_t deferred_writes_ = 0;
  std::uint64_t deferred_folds_ = 0;
  std::uint64_t deferred_flushes_ = 0;
};

}  // namespace afc::store
