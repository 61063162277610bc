#pragma once

#include <deque>
#include <memory>

#include "common/id_map.h"
#include "common/ring_queue.h"
#include "common/stats.h"
#include "fs/journal.h"
#include "fs/transaction.h"
#include "kv/db.h"
#include "sim/channel.h"
#include "sim/cpu.h"
#include "store/object_store.h"

namespace afc::fs {

/// The OSD's local object store: objects are files on a local filesystem
/// (extent map + xattrs here), PG log / omap live in the LSM KV store, and
/// all of it shares one data SSD. Writes are journaled: queue_transaction()
/// commits to the external NVRAM journal (the store's write-ahead ring),
/// then `apply_threads` filestore op threads apply it, per-PG in submission
/// order (Ceph's OpSequencer). Re-creates the behaviours the paper's
/// §2.4/§3.4 analysis rests on:
///  * every apply costs syscalls (CPU) — community Ceph repeats open/stat/
///    write per op, AFCeph's light transactions collapse them;
///  * a cold metadata read (getattr) pays a 4 KiB inode-page device read
///    — and in sustained state those reads interleave with the write
///    stream (the SSD model charges mixed-pattern penalties);
///  * community omap updates are separate KV puts, light transactions use
///    one WriteBatch.
class FileStore final : public store::ObjectStore {
 public:
  struct Config {
    Time syscall_cpu = 1300;                 // ns per syscall
    unsigned syscalls_per_op_community = 3;  // redundant open/stat/write...
    unsigned syscalls_per_op_light = 1;
    unsigned syscalls_per_txn_community = 2;  // per-txn metadata checks
    unsigned syscalls_per_txn_light = 1;
    Time alloc_hint_cpu = 2500;               // fallocate(FALLOC_FL_KEEP_SIZE)
    Time apply_cpu = 3000;                    // per-txn bookkeeping
    double cpu_multiplier = 1.0;              // allocator tax (tcmalloc ~1.6x)
    std::size_t page_cache_pages = 65536;     // 256 MiB
    /// Extra bytes the community path's per-apply fdatasync drags to the
    /// device (filesystem journal + inode block).
    std::uint64_t fdatasync_overhead_bytes = 4096;
    // Buffered-write model: applies dirty pages and return; a background
    // writeback worker pushes dirty extents to the device with bounded
    // parallelism. When dirty data exceeds the limit (vm.dirty_ratio), the
    // apply path blocks — the filestore backlog of the paper's Fig. 4.
    std::uint64_t writeback_limit_bytes = 48 * kMiB;
    unsigned writeback_parallelism = 8;
    unsigned apply_threads = 2;  // filestore op threads
  };

  FileStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& journal_dev,
            dev::Device& data_dev, kv::Db& omap, const Config& cfg,
            const Journal::Config& journal_cfg, Hooks& hooks, store::QueueThrottles throttles,
            Counters* counters, bool assume_populated);

  /// Queue throttles, then a journal_ops unit and journal ring space.
  sim::CoTask<void> admit(std::uint64_t bytes) override;
  /// Journal write (durable) -> journal_ops released -> on_commit -> the
  /// apply is queued. Applies run on the op threads and end in on_applied.
  sim::CoTask<bool> queue_transaction(Transaction tx, std::uint64_t bytes, bool lightweight,
                                      store::OpRef op) override;

  /// Apply a transaction to the backing store. `lightweight` selects the
  /// AFCeph §3.4 path (merged syscalls, batched KV, no extra xattr
  /// writeback I/O).
  sim::CoTask<void> apply_transaction(const Transaction& tx, bool lightweight) override;

  Journal* wal() override { return &journal_; }

  /// Stop the journal, the op threads and the writeback worker (flush
  /// first via drain()).
  void close() override;
  /// Wait until all dirty data has reached the device.
  sim::CoTask<void> drain() override;
  std::uint64_t dirty_bytes() const override { return dirty_sem_.in_use(); }
  std::uint64_t writeback_stalls() const override {
    return dirty_sem_.blocked_acquires();
  }

  std::uint64_t syscalls() const override { return syscalls_; }

 private:
  /// One syscall (open/stat/getxattr).
  Time lookup_cpu() override { return count_syscalls(1); }
  /// The object's inode page, read from the data device.
  sim::CoTask<void> read_cold_metadata(const ObjectId& oid) override;

  /// Count `n` syscalls; returns their CPU.
  Time count_syscalls(unsigned n);
  sim::CpuPool::Consume charge_syscalls(unsigned n) { return cpu_.consume(count_syscalls(n)); }

  /// Mark `bytes` dirty (blocking if over the writeback limit) and hand
  /// them to the writeback worker.
  sim::CoTask<void> buffer_write(std::uint64_t bytes);
  sim::CoTask<void> writeback_loop();

  /// A journaled transaction waiting for an op thread.
  struct PendingApply {
    Transaction tx;
    std::uint64_t bytes = 0;  // admitted size (queue throttle units)
    std::uint64_t seq = 0;    // journal record to retire
    bool lightweight = false;
    store::OpRef op;
  };
  sim::CoTask<void> op_thread();
  sim::CoTask<void> apply_queued(PendingApply item);

  kv::Db& omap_;
  Config cfg_;
  Journal journal_;
  sim::Channel<PendingApply> apply_q_;
  /// Per-PG apply sequencing (Ceph's OpSequencer): applies of one PG run
  /// in submission order even with several op threads.
  struct OpSequencer {
    bool busy = false;
    RingQueue<PendingApply> pending;
  };
  /// By PG. Each sequencer sits in its own allocation: an op thread holds
  /// it across its applies while other PGs' sequencers are created.
  IdMap<std::unique_ptr<OpSequencer>> sequencers_;

  sim::Semaphore dirty_sem_;           // units = dirty bytes allowed
  sim::Semaphore wb_parallel_;         // concurrent writeback I/Os
  std::deque<std::uint64_t> wb_queue_;  // dirty extent sizes awaiting writeback
  sim::CondVar wb_cv_;
  sim::CondVar wb_idle_cv_;
  unsigned wb_inflight_ = 0;
  bool closing_ = false;
  std::uint64_t wb_pos_ = 0;
  std::uint64_t syscalls_ = 0;
};

}  // namespace afc::fs
