#pragma once

#include <compare>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/id_map.h"
#include "common/probe_table.h"
#include "common/ring_queue.h"
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
  std::uint64_t deferred_pending() const { return records_live_; }

 private:
  /// One block of one object, by its logical offset. Ordered by pg, name
  /// bytes, then offset: the order flush_deferred picks a record's blocks in.
  struct BlockKey {
    fs::ObjectId oid;
    std::uint64_t off = 0;
    bool operator==(const BlockKey&) const = default;
    std::strong_ordering operator<=>(const BlockKey&) const = default;
  };

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
  /// The block is durably rewritten for `seqs` (ascending; a snapshot taken
  /// when the rewrite was issued): drop the block from each record, retiring
  /// records left with nothing pending. `counter` attributes the retirement.
  void retire_block_seqs(const BlockKey& key, const std::vector<std::uint64_t>& seqs,
                         std::uint64_t* counter);
  /// A durable rewrite covered this block: retire every WAL record that was
  /// only waiting on it. `counter` attributes the retirement (fold/flush).
  void fold_block(const BlockKey& key, std::uint64_t* counter);
  void fold_covered(const fs::ObjectId& oid, std::uint64_t off, std::uint64_t len);
  void maybe_flush_deferred();
  /// Drive the deferred backlog below `floor` via in-place rewrites, up to
  /// `flush_iodepth` blocks in flight at once.
  sim::CoTask<void> flush_deferred(std::uint64_t floor);
  /// The block flush_deferred rewrites next: in the oldest record that has
  /// a block not in flight, the first such block in BlockKey order. False
  /// when every pending block is in flight.
  bool pick_flush_block(BlockKey& key);
  /// One in-flight block rewrite: device write, then retire the records
  /// that were waiting on the block when the write was issued.
  sim::CoTask<void> flush_block(BlockKey key);
  /// The rewrite of `key` has landed or was dropped: the block leaves the
  /// in-flight set (and the table, when no record waits on it).
  void end_flush(const BlockKey& key);
  /// The single KV finalizer (BlueStore's kv_sync_thread): drains queued
  /// per-transaction metadata into merged atomic KV batches, then retires
  /// the WAL records whose only outstanding obligation was the KV commit.
  sim::CoTask<void> kv_finalize_loop();

  kv::Db& kv_;
  Config cfg_;
  fs::Journal wal_;
  ExtentAllocator alloc_;

  /// logical block offset -> physical block offset, per object
  /// (ObjectId::key()), in block order. Only explicitly written blocks are
  /// mapped; implicit populated base data is conceptually outside the
  /// allocator pool. Every block the deferred ledger holds is mapped here.
  IdMap<FlatMap<std::uint64_t, std::uint64_t>> phys_;

  /// Deferred-write ledger (RAM; lost on crash, rebuilt by WAL replay): which
  /// WAL records wait on which blocks. A record's payload is realized once
  /// every block it covers has been durably rewritten (flush or fold); each
  /// (record, block) pair is one Link, threaded on two lists.
  static constexpr std::uint32_t kNil = IndexSlot::kNil;
  struct Link {
    BlockKey key;
    std::uint64_t seq = 0;
    std::uint32_t next_in_record = kNil;
    std::uint32_t next_in_block = kNil;  // free-list link when free
  };
  /// A deferred WAL record.
  struct DeferredRec {
    std::uint64_t bytes = 0;
    std::uint32_t links = kNil;  // its blocks not yet rewritten, any order
    /// The transaction's KV batch is still in flight: even with every block
    /// durable, the record must stay replayable until the batch commits.
    bool kv_pending = false;
    bool live = false;  // false: a WAL seq with no deferred record
  };
  /// A block some record waits on, or one with a rewrite on the device.
  struct DeferredBlock {
    static constexpr std::uint64_t kNoBlock = ~std::uint64_t(0);
    BlockKey key{{}, kNoBlock};  // kNoBlock: empty slot
    std::uint32_t hash = 0;
    std::uint32_t head = kNil;  // its records' links, ascending seq
    std::uint32_t tail = kNil;
    /// An in-place rewrite is on the device (each spawned flush_block owns
    /// the flag until the write lands).
    bool inflight = false;
    struct Traits {
      static bool empty(const DeferredBlock& b) { return b.key.off == kNoBlock; }
      static std::uint32_t hash(const DeferredBlock& b) { return b.hash; }
    };
  };
  static std::uint32_t block_hash(const BlockKey& k) {
    std::uint64_t x = k.oid.key() * 0x9e3779b97f4a7c15ull ^ k.off;
    x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ull;
    return std::uint32_t(x >> 32);
  }
  DeferredBlock* find_block(const BlockKey& key);
  /// Thread (seq, key) on both lists unless the pair is already there.
  void add_link(DeferredRec& rec, std::uint64_t seq, const BlockKey& key);
  /// Unthread link `l` from its record's list and free it.
  void drop_link(std::uint32_t l);
  /// The live record of WAL seq `seq`, or nullptr.
  DeferredRec* find_record(std::uint64_t seq) {
    if (seq < records_base_ || seq - records_base_ >= records_.size()) return nullptr;
    DeferredRec& r = records_[seq - records_base_];
    return r.live ? &r : nullptr;
  }
  DeferredRec& make_record(std::uint64_t seq);
  /// Retire `seq`'s record; the window's front advances past dead slots.
  void drop_record(std::uint64_t seq);

  /// records_[i] is WAL seq records_base_ + i, from the oldest live record
  /// to the newest: oldest record first is a walk from the front.
  RingQueue<DeferredRec> records_;
  std::uint64_t records_base_ = 0;
  std::size_t records_live_ = 0;
  ProbeTable<DeferredBlock, DeferredBlock::Traits> blocks_;
  std::vector<Link> links_;
  std::uint32_t free_link_ = kNil;
  /// Every live record below this seq has all its blocks in flight, so
  /// pick_flush_block starts here. A landing or a new link moves it back.
  std::uint64_t flush_scan_ = 0;
  std::vector<std::uint64_t> fold_seqs_;  // fold_block's snapshot, reused
  std::uint64_t deferred_pending_bytes_ = 0;
  bool flush_running_ = false;
  unsigned flush_inflight_ = 0;  // blocks with inflight set
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
