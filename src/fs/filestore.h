#pragma once

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/stats.h"
#include "fs/journal.h"
#include "fs/pagecache.h"
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
///  * metadata reads (getattr/stat) hit the page cache or pay a device
///    read — and in sustained state those reads interleave with the write
///    stream (the SSD model charges mixed-pattern penalties);
///  * community omap updates are separate KV puts, light transactions use
///    one WriteBatch;
///  * `assume_populated` simulates an 80%-full cluster: unknown objects
///    exist implicitly with 4 MiB of (virtual) data, so writes are
///    overwrites that need metadata, without allocating per-object state up
///    front.
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
    bool assume_populated = false;
    std::uint64_t populated_object_size = 4 * kMiB;
    std::uint64_t populated_xattr_bytes = 250;
    std::uint64_t xattr_device_bytes = 4096;  // inode/xattr writeback page
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

  /// Pseudo page index used to cache an object's inode/dentry/xattr block.
  static constexpr std::uint64_t kMetaPage = ~std::uint64_t(0);

  FileStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& journal_dev,
            dev::Device& data_dev, kv::Db& omap, const Config& cfg,
            const Journal::Config& journal_cfg, Hooks& hooks, store::QueueThrottles throttles,
            Counters* counters = nullptr);

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

  sim::CoTask<ReadResult> read(const ObjectId& oid, std::uint64_t off, std::uint64_t len,
                               bool want_data = true) override;

  sim::CoTask<std::optional<kv::Value>> getattr(const ObjectId& oid,
                                                const std::string& name) override;

  sim::CoTask<std::optional<std::uint64_t>> stat(const ObjectId& oid) override;

  /// Cheap in-memory checks for tests (no simulated cost).
  bool object_in_memory(const ObjectId& oid) const override {
    return objects_.contains(oid);
  }
  std::size_t object_count() const override { return objects_.count(); }
  std::uint64_t object_size(const ObjectId& oid) const override;

  // --- recovery support (control plane; I/O costs charged by the caller) -
  std::vector<ObjectId> objects_in_pg(std::uint32_t pg) const override {
    return objects_.objects_in_pg(pg);
  }
  ObjectExport export_object(const ObjectId& oid) const override {
    return objects_.export_object(oid);
  }
  void remove_object(const ObjectId& oid) override { objects_.remove(oid); }
  std::uint64_t object_fingerprint(const ObjectId& oid) const override {
    return objects_.fingerprint(oid);
  }
  bool corrupt_object(const ObjectId& oid) override { return objects_.corrupt(oid); }
  std::optional<ObjectId> corrupt_some_object(std::uint64_t seed) override {
    return objects_.corrupt_some(seed);
  }
  bool verify_object(const ObjectId& oid) const override { return objects_.verify(oid); }

  PageCache& page_cache() { return cache_; }
  const Config& config() const { return cfg_; }

  bool assume_populated() const override { return cfg_.assume_populated; }
  std::uint64_t populated_object_size() const override {
    return cfg_.populated_object_size;
  }

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
  std::uint64_t metadata_device_reads() const override { return metadata_device_reads_; }
  std::uint64_t applies() const override { return applies_; }
  std::uint64_t data_bytes_written() const override { return data_bytes_written_; }

 private:
  using Object = store::ExtentMap::Object;

  sim::CoTask<void> charge_syscalls(unsigned n);
  Object& materialize_object(const ObjectId& oid);
  bool implicitly_exists(const ObjectId& oid) const;
  static std::uint64_t object_hash(const ObjectId& oid) {
    return store::ExtentMap::object_hash(oid);
  }
  static std::uint64_t populated_seed(const ObjectId& oid) {
    return store::ExtentMap::populated_seed(oid);
  }

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

  sim::CpuPool& cpu_;
  dev::Device& dev_;
  kv::Db& omap_;
  Config cfg_;
  PageCache cache_;
  Journal journal_;
  sim::Channel<PendingApply> apply_q_;
  /// Per-PG apply sequencing (Ceph's OpSequencer): applies of one PG run
  /// in submission order even with several op threads.
  struct OpSequencer {
    bool busy = false;
    std::deque<PendingApply> pending;
  };
  std::unordered_map<std::uint32_t, OpSequencer> sequencers_;

  store::ExtentMap objects_;
  sim::Semaphore dirty_sem_;           // units = dirty bytes allowed
  sim::Semaphore wb_parallel_;         // concurrent writeback I/Os
  std::deque<std::uint64_t> wb_queue_;  // dirty extent sizes awaiting writeback
  sim::CondVar wb_cv_;
  sim::CondVar wb_idle_cv_;
  unsigned wb_inflight_ = 0;
  bool closing_ = false;
  std::uint64_t wb_pos_ = 0;
  std::uint64_t syscalls_ = 0;
  std::uint64_t metadata_device_reads_ = 0;
  std::uint64_t applies_ = 0;
  std::uint64_t data_bytes_written_ = 0;
};

}  // namespace afc::fs
