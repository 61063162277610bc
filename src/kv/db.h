#pragma once

#include <memory>
#include <optional>

#include "common/lru_set.h"
#include "common/stats.h"
#include "core/trace.h"
#include "kv/sstable.h"
#include "kv/wal.h"
#include "sim/channel.h"
#include "sim/cpu.h"

namespace afc::kv {

/// One write-batch: all ops apply atomically with a single WAL record — the
/// mechanism behind the paper's "minimize operations in a batching manner
/// when transaction is written to Key-value DB" (§3.4).
class WriteBatch {
 public:
  void put(std::string key, Value v) { ops_.push_back({std::move(key), std::move(v), kPut}); }
  void del(std::string key) { ops_.push_back({std::move(key), Value{}, kDel}); }
  std::size_t size() const { return ops_.size(); }
  std::uint64_t payload_bytes() const;

  /// Trace attribution for the whole batch (invalid when tracing is off).
  trace::Span trace;

 private:
  friend class Db;
  enum Kind { kPut, kDel };
  struct Op {
    std::string key;
    Value value;
    Kind kind;
  };
  std::vector<Op> ops_;
};

/// Leveled LSM tree in the LevelDB mould: memtable → immutable memtable →
/// L0 (overlapping) → L1..Ln (sorted, 10x fanout), with a background flush/
/// compaction worker, bloom filters, a block cache, L0 slowdown/stop write
/// stalls, and full write-amplification accounting. All file I/O is charged
/// to the owning device, so compaction competes with foreground traffic —
/// the "latency of each requested operation becomes unstable because
/// key-value DB performs compaction" effect from §3.4 emerges here.
class Db {
 public:
  struct Config {
    std::uint64_t memtable_bytes = 4 * kMiB;
    int l0_compaction_trigger = 4;
    int l0_slowdown_threshold = 8;
    int l0_stop_threshold = 12;
    Time l0_slowdown_delay = 1 * kMillisecond;  // LevelDB's 1ms write sleep
    std::uint64_t base_level_bytes = 10 * kMiB;
    double level_multiplier = 10.0;
    int max_levels = 5;
    std::uint64_t target_file_bytes = 2 * kMiB;
    std::uint64_t wal_buffer_bytes = 64 * 1024;
    std::uint64_t block_cache_bytes = 8 * kMiB;
    std::uint64_t compaction_io_chunk = 1 * kMiB;
    // CPU cost per user op (encode + memtable insert + WAL append); batched
    // ops amortize (LevelDB's group commit). Charged when a CpuPool is
    // attached.
    Time put_cpu = 9000;
    Time batched_op_cpu = 3500;
    Time get_cpu = 6000;
    double cpu_multiplier = 1.0;  // allocator tax
  };

  Db(sim::Simulation& sim, dev::Device& dev, const Config& cfg, sim::CpuPool* cpu = nullptr);
  Db(sim::Simulation& sim, dev::Device& dev) : Db(sim, dev, Config{}) {}

  /// Single-op writes (one WAL record each — the community-Ceph pattern of
  /// several separate KV ops per transaction). A valid `span` attributes the
  /// write's latency (stalls, WAL, memtable) to that op in the tracer.
  sim::CoTask<void> put(std::string key, Value v, trace::Span span = {});
  sim::CoTask<void> del(std::string key, trace::Span span = {});

  /// Atomic batch (one WAL record — the AFCeph pattern).
  sim::CoTask<void> write(WriteBatch batch);

  sim::CoTask<std::optional<Value>> get(std::string key);

  /// Up to `limit` live keys in [lo, hi), in order. Serves PG-log trimming
  /// and omap listing. Reads only in-memory structures plus table indexes.
  sim::CoTask<std::vector<std::string>> range_keys(std::string lo, std::string hi,
                                                   std::size_t limit);

  /// Stop the background worker after current job (call before teardown for
  /// leak-free shutdown).
  void close();
  /// Wait until no flush/compaction is queued or running.
  sim::CoTask<void> drain();

  std::uint64_t user_bytes() const { return user_bytes_; }
  std::uint64_t device_write_bytes() const;
  /// Bytes written to the device per user byte (the paper measures 30 MB of
  /// extra data for 4 MB-block writes vs 2 GB extra for 4 KB blocks).
  double write_amplification() const;

  std::uint64_t stall_slowdowns() const { return stall_slowdowns_; }
  std::uint64_t stall_stops() const { return stall_stops_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t flushes() const { return flushes_; }
  int l0_files() const { return int(levels_[0].size()); }
  std::size_t table_count() const;
  std::uint64_t block_cache_hits() const { return cache_hits_; }
  std::uint64_t block_cache_misses() const { return cache_misses_; }

 private:
  using TablePtr = std::shared_ptr<SsTable>;

  sim::CoTask<void> apply(WriteBatch batch);
  sim::CoTask<void> maybe_stall();
  void maybe_schedule_flush();
  sim::CoTask<void> background_worker();
  sim::CoTask<void> do_flush();
  sim::CoTask<void> do_compaction(int level);
  int pick_compaction_level() const;
  std::uint64_t level_bytes(int level) const;
  std::uint64_t level_target(int level) const;

  /// Charge a (possibly cached) block read for `table`; returns true if the
  /// device was touched.
  sim::CoTask<bool> read_block(const SsTable& table, std::uint64_t block);

  sim::Simulation& sim_;
  dev::Device& dev_;
  Config cfg_;
  sim::CpuPool* cpu_;
  Wal wal_;

  MemTable mem_;
  std::optional<MemTable> imm_;
  std::vector<std::vector<TablePtr>> levels_;
  std::uint64_t next_table_id_ = 1;
  std::uint64_t next_seq_ = 1;

  sim::Mutex write_lock_;
  sim::CondVar work_cv_;
  sim::CondVar stall_cv_;
  sim::CondVar idle_cv_;
  bool flush_requested_ = false;
  bool closing_ = false;
  bool worker_busy_ = false;

  // Block cache: resident (table_id, block) pairs in LRU order.
  LruSet block_cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  std::uint64_t user_bytes_ = 0;
  std::uint64_t flush_bytes_ = 0;
  std::uint64_t compaction_write_bytes_ = 0;
  std::uint64_t stall_slowdowns_ = 0;
  std::uint64_t stall_stops_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace afc::kv
