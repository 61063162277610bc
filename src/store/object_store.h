#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "device/device.h"
#include "fs/pagecache.h"
#include "kv/db.h"
#include "sim/cpu.h"
#include "sim/sync.h"
#include "store/extent_map.h"

namespace afc::fs {
class Journal;
}

namespace afc::osd {
struct OpCtx;
}

namespace afc::store {

/// The primary client op a queued transaction belongs to (Ceph's
/// TrackedOpRef); null for replica sub-ops. A store only carries it from
/// queue_transaction() back to the hooks.
using OpRef = std::shared_ptr<osd::OpCtx>;

/// The owning OSD's store admission throttles (kept in osd::ThrottleSet):
/// admit() acquires them, the store's commit and apply release them.
struct QueueThrottles {
  sim::Semaphore& ops;          // filestore_queue_max_ops
  sim::Semaphore& bytes;        // filestore_queue_max_bytes
  sim::Semaphore& journal_ops;  // journal_queue_max_ops (FileStore only)
};

/// What the OSD needs from its local object store, Ceph's shape: admit(),
/// then queue_transaction() with on-commit / on-applied hooks. Two backends
/// implement it, each owning exactly one write-ahead ring (wal()):
/// fs::FileStore (objects as files; NVRAM journal, then an apply pass on op
/// threads) and store::FlashStore (raw-device extents; a small WAL for
/// sub-block writes, metadata in the LSM KV; applied at commit).
///
/// The object namespace is shared simulator bookkeeping, so it lives here
/// once: the object table, the page cache over the data device, the
/// implicit-population policy and the lookup path (read / getattr). A
/// backend supplies its commit path and two lookup costs: the CPU of one
/// lookup (lookup_cpu()) and the device or KV work of a cold metadata
/// lookup (read_cold_metadata()).
///
/// `assume_populated` simulates an 80%-full cluster: unknown objects exist
/// implicitly with kPopulatedObjectSize bytes of synthesized data and their
/// object_info / snapset xattrs, so writes are overwrites that need
/// metadata, without allocating per-object state up front.
class ObjectStore {
 public:
  struct ReadResult {
    bool found = false;
    std::uint64_t length = 0;
    std::optional<std::vector<std::uint8_t>> data;  // only if want_data
  };
  using ObjectExport = store::ObjectExport;

  /// Size of an implicitly populated object.
  static constexpr std::uint64_t kPopulatedObjectSize = 4 * kMiB;

  /// Callbacks of a queued transaction (Ceph's on_commit / on_applied
  /// Contexts), implemented once by the owner.
  class Hooks {
   public:
    virtual ~Hooks() = default;
    /// The transaction is durable and the store has released the units its
    /// commit held. Runs inside queue_transaction(), before FileStore
    /// queues the apply.
    virtual sim::CoTask<void> on_commit(const OpRef& op) = 0;
    /// FileStore's apply pass finished the transaction; its queue throttles
    /// and read gate are already released.
    virtual sim::CoTask<void> on_applied(const OpRef& op) = 0;
  };

  ObjectStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& data_dev,
              std::size_t page_cache_pages, bool assume_populated, Hooks& hooks,
              QueueThrottles throttles, Counters* counters)
      : sim_(sim),
        cpu_(cpu),
        dev_(data_dev),
        hooks_(hooks),
        throttles_(throttles),
        counters_(counters),
        cache_(page_cache_pages),
        assume_populated_(assume_populated),
        gate_cv_(sim) {}
  virtual ~ObjectStore() = default;

  /// Admission (the paper's Fig. 3 step (3), inside the PG critical
  /// section): take the queue throttles and write-ahead ring space for a
  /// transaction of `bytes` encoded bytes. Blocks under backpressure.
  virtual sim::CoTask<void> admit(std::uint64_t bytes) = 0;

  /// Commit an admitted transaction through the store's write-ahead ring.
  /// The event order is load-bearing for every figure:
  ///   1. the write becomes durable;
  ///   2. the store releases what the commit held — FileStore its
  ///      journal_ops unit; FlashStore the queue throttles and the read
  ///      gate;
  ///   3. hooks.on_commit(op);
  ///   4. FileStore queues the apply. Its end releases the queue throttles
  ///      and the read gate, then runs hooks.on_applied(op).
  /// FlashStore applies at commit and never fires on_applied: its apply
  /// cost is modeled inside the commit, and there is no second completion
  /// to charge. Resumes with true once step 4 is queued, or with false when
  /// the store is closing (nothing committed: the op must not be acked).
  virtual sim::CoTask<bool> queue_transaction(fs::Transaction tx, std::uint64_t bytes,
                                              bool lightweight, OpRef op) = 0;

  /// Apply a transaction directly, with no write-ahead record: ring replay,
  /// recovery imports, scrub repair. `lightweight` selects the AFCeph §3.4
  /// path where the backend distinguishes them.
  virtual sim::CoTask<void> apply_transaction(const fs::Transaction& tx,
                                              bool lightweight) = 0;

  /// Ceph's ondisk_read_lock: resumes once every queued transaction on
  /// `oid` has applied (FileStore's apply lags its journal).
  sim::CoTask<void> wait_object_readable(const fs::ObjectId& oid);

  /// Restart recovery (Ceph's replay at mount): re-apply, in order, the
  /// records Journal::restart() finds intact in wal(), retiring each;
  /// resumes once all have re-applied. Counts osd.journal.*.
  sim::CoTask<void> replay(bool lightweight);

  /// Read [off, off+len) of an object: the lookup CPU, then a device read
  /// of the pages the page cache lacks. `want_data=false` skips
  /// materialization (benchmarks) but still charges the same I/O.
  sim::CoTask<ReadResult> read(const fs::ObjectId& oid, std::uint64_t off, std::uint64_t len,
                               bool want_data = true);
  /// Metadata read (object_info / snapset): the lookup CPU, then a cache
  /// hit or the backend's cold metadata read.
  sim::CoTask<std::optional<kv::Value>> getattr(const fs::ObjectId& oid,
                                                const std::string& name);

  // --- cheap in-memory checks (no simulated cost) ------------------------
  bool object_in_memory(const fs::ObjectId& oid) const { return objects_.contains(oid); }
  /// Logical size of a materialized object; 0 when it is not in memory.
  std::uint64_t object_size(const fs::ObjectId& oid) const;

  // --- recovery support (control plane; I/O charged by the caller) -------
  std::vector<fs::ObjectId> objects_in_pg(std::uint32_t pg) const {
    return objects_.objects_in_pg(pg);
  }
  ObjectExport export_object(const fs::ObjectId& oid) const {
    return objects_.export_object(oid);
  }
  /// Drop an object's state (recovery: the importer replaces the whole
  /// object so stale extents the source lacks cannot survive a repair).
  virtual void remove_object(const fs::ObjectId& oid) { objects_.remove(oid); }
  /// Content fingerprint over the object's extents + size (scrub).
  std::uint64_t object_fingerprint(const fs::ObjectId& oid) const {
    return objects_.fingerprint(oid);
  }
  /// FAILURE INJECTION: flip one byte of the object's first extent.
  bool corrupt_object(const fs::ObjectId& oid) { return objects_.corrupt(oid); }
  /// Deep-scrub self-check: stored checksums still match content.
  bool verify_object(const fs::ObjectId& oid) const { return objects_.verify(oid); }
  /// The clean-copy rule: only a copy that is here and passes its own CRC
  /// may be read, copied or decoded from (docs/FAULTS.md).
  bool holds_clean(const fs::ObjectId& oid) const {
    return object_in_memory(oid) && verify_object(oid);
  }

  /// The store's one write-ahead ring (FileStore's external journal,
  /// FlashStore's WAL); never null. Fault injection stalls, tears and
  /// flips it; restart replays it.
  virtual fs::Journal* wal() = 0;
  /// The daemon died (fault injection): drop RAM-only bookkeeping (e.g.
  /// the deferred-write ledger). Media-durable state must survive.
  virtual void on_daemon_crash() {}

  /// Implicit-population policy, needed by the OSD's metadata path before
  /// it touches the store.
  bool assume_populated() const { return assume_populated_; }

  virtual void close() = 0;
  /// Wait until all buffered/deferred data has reached the device.
  virtual sim::CoTask<void> drain() = 0;

  // --- instrumentation ---------------------------------------------------
  virtual std::uint64_t dirty_bytes() const { return 0; }
  virtual std::uint64_t writeback_stalls() const { return 0; }
  virtual std::uint64_t syscalls() const { return 0; }
  /// Cold metadata lookups (FileStore inode-page reads, FlashStore onode
  /// KV gets).
  std::uint64_t metadata_device_reads() const { return metadata_device_reads_; }
  std::uint64_t applies() const { return applies_; }
  std::uint64_t data_bytes_written() const { return data_bytes_written_; }

 protected:
  /// The backend's bookkeeping for one lookup (read / getattr); returns
  /// the CPU it costs, which the caller consumes.
  virtual Time lookup_cpu() = 0;
  /// A metadata lookup missed the page cache: count it under the backend's
  /// counter and pay for the read (FileStore: an inode page from the data
  /// device; FlashStore: an onode KV get).
  virtual sim::CoTask<void> read_cold_metadata(const fs::ObjectId& oid) = 0;

  /// Content install of a write op: extents, page cache, byte counter.
  void install_write(const fs::TxOp& op);
  /// Content install of a setattrs op: xattrs and the cached meta page.
  void install_attrs(const fs::TxOp& op);

  /// The read gate: a transaction on `oid` was queued / has applied.
  void note_apply_queued(const fs::ObjectId& oid) { pending_applies_[oid]++; }
  void note_apply_done(const fs::ObjectId& oid);

  sim::Simulation& sim_;
  sim::CpuPool& cpu_;
  dev::Device& dev_;  // the data device
  Hooks& hooks_;
  QueueThrottles throttles_;
  Counters* counters_;
  std::uint64_t applies_ = 0;

 private:
  using Object = ExtentMap::Object;

  /// Implicitly populated objects' object_info ("_") and snapset bytes.
  static constexpr std::uint32_t kPopulatedXattrBytes = 250;
  static constexpr std::uint32_t kPopulatedSnapsetBytes = 31;
  /// Pseudo page index caching an object's metadata (FileStore's inode /
  /// dentry / xattr block, FlashStore's onode).
  static constexpr std::uint64_t kMetaPage = ~std::uint64_t(0);

  /// The object's table entry, created on first touch (with its
  /// synthesized base content when the cluster is assumed populated).
  Object& materialize_object(const fs::ObjectId& oid);

  fs::PageCache cache_;
  ExtentMap objects_;
  const bool assume_populated_;
  std::uint64_t metadata_device_reads_ = 0;
  std::uint64_t data_bytes_written_ = 0;
  std::unordered_map<fs::ObjectId, unsigned, fs::ObjectIdHash> pending_applies_;
  sim::CondVar gate_cv_;
};

}  // namespace afc::store
