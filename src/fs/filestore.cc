#include "fs/filestore.h"

#include "common/stage_names.h"

namespace afc::fs {

FileStore::FileStore(sim::Simulation& sim, sim::CpuPool& cpu, dev::Device& journal_dev,
                     dev::Device& data_dev, kv::Db& omap, const Config& cfg,
                     const Journal::Config& journal_cfg, Hooks& hooks,
                     store::QueueThrottles throttles, Counters* counters,
                     bool assume_populated)
    : ObjectStore(sim, cpu, data_dev, cfg.page_cache_pages, assume_populated, hooks, throttles,
                  counters),
      omap_(omap),
      cfg_(cfg),
      journal_(sim, journal_dev, journal_cfg),
      apply_q_(sim),
      dirty_sem_(sim, cfg.writeback_limit_bytes),
      wb_parallel_(sim, cfg.writeback_parallelism),
      wb_cv_(sim),
      wb_idle_cv_(sim) {
  sim::spawn(writeback_loop());
  for (unsigned t = 0; t < cfg_.apply_threads; t++) sim::spawn(op_thread());
}

sim::CoTask<void> FileStore::admit(std::uint64_t bytes) {
  co_await throttles_.ops.acquire(1);
  co_await throttles_.bytes.acquire(bytes);
  co_await throttles_.journal_ops.acquire(1);
  co_await journal_.reserve(bytes);
}

sim::CoTask<bool> FileStore::queue_transaction(Transaction tx, std::uint64_t bytes,
                                               bool lightweight, store::OpRef op) {
  note_apply_queued(tx.ops().front().oid);
  const std::uint64_t seq = co_await journal_.write_entry(bytes, tx.encode(), tx.trace);
  if (seq == 0) co_return false;  // journal closing: entry rejected, not committed
  throttles_.journal_ops.release(1);
  co_await hooks_.on_commit(op);
  // Write-ahead satisfied: queue the filestore apply.
  apply_q_.try_push(PendingApply{std::move(tx), bytes, seq, lightweight, std::move(op)});
  co_return true;
}

sim::CoTask<void> FileStore::op_thread() {
  for (;;) {
    auto item = co_await apply_q_.pop();
    if (!item) break;
    // OpSequencer: a PG's transactions apply strictly in submission order.
    OpSequencer& seq = sequencers_[item->tx.ops().front().oid.pg];
    if (seq.busy) {
      seq.pending.push_back(std::move(*item));
      continue;
    }
    seq.busy = true;
    co_await apply_queued(std::move(*item));
    while (!seq.pending.empty()) {
      PendingApply next = std::move(seq.pending.front());
      seq.pending.pop_front();
      co_await apply_queued(std::move(next));
    }
    seq.busy = false;
  }
}

sim::CoTask<void> FileStore::apply_queued(PendingApply item) {
  co_await apply_transaction(item.tx, item.lightweight);
  // Retire the journal record: its ring space frees with the apply.
  journal_.mark_applied(item.seq);
  throttles_.ops.release(1);
  throttles_.bytes.release(item.bytes);
  note_apply_done(item.tx.ops().front().oid);
  co_await hooks_.on_applied(item.op);
}

sim::CoTask<void> FileStore::buffer_write(std::uint64_t bytes) {
  if (bytes == 0) co_return;
  co_await dirty_sem_.acquire(bytes);
  wb_queue_.push_back(bytes);
  wb_cv_.notify_one();
}

sim::CoTask<void> FileStore::writeback_loop() {
  // Dispatcher: issues dirty extents to the device with bounded parallelism
  // (models the kernel flusher threads + request queue depth).
  for (;;) {
    while (wb_queue_.empty() && !closing_) co_await wb_cv_.wait();
    if (closing_ && wb_queue_.empty()) break;
    const std::uint64_t bytes = wb_queue_.front();
    wb_queue_.pop_front();
    co_await wb_parallel_.acquire(1);
    wb_inflight_++;
    const std::uint64_t pos = wb_pos_;
    wb_pos_ += bytes;
    sim::spawn_fn([this, bytes, pos]() -> sim::CoTask<void> {
      co_await dev_.submit(dev::IoType::kWrite, pos, bytes);
      dirty_sem_.release(bytes);
      wb_parallel_.release(1);
      wb_inflight_--;
      if (wb_inflight_ == 0 && wb_queue_.empty()) wb_idle_cv_.notify_all();
    });
  }
  wb_idle_cv_.notify_all();
}

void FileStore::close() {
  apply_q_.close();
  journal_.close();
  closing_ = true;
  wb_cv_.notify_all();
}

sim::CoTask<void> FileStore::drain() {
  while (!wb_queue_.empty() || wb_inflight_ > 0) co_await wb_idle_cv_.wait();
}

Time FileStore::count_syscalls(unsigned n) {
  syscalls_ += n;
  return Time(double(cfg_.syscall_cpu) * n * cfg_.cpu_multiplier);
}

sim::CoTask<void> FileStore::read_cold_metadata(const ObjectId& /*oid*/) {
  co_await dev_.submit(dev::IoType::kRead, 0, 4096);
}

sim::CoTask<void> FileStore::apply_transaction(const Transaction& tx, bool lightweight) {
  applies_++;
  const Time apply_t0 = sim_.now();
  co_await cpu_.consume(Time(double(cfg_.apply_cpu) * cfg_.cpu_multiplier));
  co_await charge_syscalls(lightweight ? cfg_.syscalls_per_txn_light
                                       : cfg_.syscalls_per_txn_community);
  kv::WriteBatch batch;  // light path accumulates all KV work into one batch
  batch.trace = tx.trace;
  for (const auto& op : tx.ops()) {
    co_await charge_syscalls(lightweight ? cfg_.syscalls_per_op_light
                                         : cfg_.syscalls_per_op_community);
    switch (op.type) {
      case TxOpType::kWrite: {
        install_write(op);
        const std::uint64_t len = op.data.size();
        if (lightweight) {
          co_await buffer_write(len);  // buffered; writeback hits the device
        } else {
          // Community filestore: WBThrottle keeps dirty data tightly bounded
          // (fdatasync pressure so journal trim latency stays sane), which
          // on a sustained SSD makes each apply pay a near-synchronous
          // random write — data plus the filesystem-journal/inode commit the
          // fdatasync drags in.
          co_await dev_.submit(dev::IoType::kWrite, op.offset,
                               len + cfg_.fdatasync_overhead_bytes);
        }
        break;
      }
      case TxOpType::kOmapSetKeys: {
        if (lightweight) {
          for (const auto& [k, v] : op.omap) batch.put(k, v);
        } else {
          for (const auto& [k, v] : op.omap) co_await omap_.put(k, v, tx.trace);
        }
        break;
      }
      case TxOpType::kOmapRmKeyRange: {
        auto keys = co_await omap_.range_keys(op.range_lo, op.range_hi, 4096);
        if (lightweight) {
          for (auto& k : keys) batch.del(std::move(k));
        } else {
          for (auto& k : keys) co_await omap_.del(std::move(k), tx.trace);
        }
        break;
      }
      case TxOpType::kSetAttrs: {
        install_attrs(op);
        // xattrs land in the inode and ride the data write's fdatasync; no
        // separate device op in either mode (syscall CPU already charged).
        break;
      }
      case TxOpType::kSetAllocHint: {
        co_await cpu_.consume(Time(double(cfg_.alloc_hint_cpu) * cfg_.cpu_multiplier));
        syscalls_++;
        break;
      }
    }
  }
  if (batch.size() > 0) co_await omap_.write(std::move(batch));
  // fs.apply: CPU + syscalls + data write (or buffering) + KV metadata for
  // the whole transaction.
  if (auto* tr = trace::Collector::active(); tr != nullptr && tx.trace.valid()) {
    tr->complete(tx.trace, tr->stage_id(stage::kFsApply), apply_t0, sim_.now());
  }
}

}  // namespace afc::fs
