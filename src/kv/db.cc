#include "kv/db.h"

#include <algorithm>

#include "common/stage_names.h"

namespace afc::kv {

std::uint64_t WriteBatch::payload_bytes() const {
  std::uint64_t total = 0;
  for (const auto& op : ops_) total += op.key.size() + op.value.size() + 8;
  return total;
}

Db::Db(sim::Simulation& sim, dev::Device& dev, const Config& cfg, sim::CpuPool* cpu)
    : sim_(sim),
      dev_(dev),
      cfg_(cfg),
      cpu_(cpu),
      wal_(sim, dev, cfg.wal_buffer_bytes),
      write_lock_(sim),
      work_cv_(sim),
      stall_cv_(sim),
      idle_cv_(sim),
      block_cache_(std::size_t(cfg.block_cache_bytes / 4096)) {
  levels_.resize(std::size_t(cfg_.max_levels));
  sim::spawn(background_worker());
}

sim::CoTask<void> Db::put(std::string key, Value v, trace::Span span) {
  WriteBatch b;
  b.put(std::move(key), std::move(v));
  b.trace = span;
  co_await apply(std::move(b));
}

sim::CoTask<void> Db::del(std::string key, trace::Span span) {
  WriteBatch b;
  b.del(std::move(key));
  b.trace = span;
  co_await apply(std::move(b));
}

sim::CoTask<void> Db::write(WriteBatch batch) { co_await apply(std::move(batch)); }

sim::CoTask<void> Db::apply(WriteBatch batch) {
  const Time kv_t0 = sim_.now();
  if (cpu_ != nullptr) {
    // Single-op writes pay the full per-op cost; batched ops amortize the
    // WAL/group-commit overhead (LevelDB write-batch behaviour).
    const Time per_op = batch.size() == 1 ? cfg_.put_cpu : cfg_.batched_op_cpu;
    co_await cpu_->consume(Time(double(per_op) * double(batch.size()) * cfg_.cpu_multiplier));
  }
  co_await write_lock_.lock();
  co_await maybe_stall();
  const std::uint64_t payload = batch.payload_bytes();
  user_bytes_ += payload;
  co_await wal_.append(payload);
  for (auto& op : batch.ops_) {
    if (op.kind == WriteBatch::kPut) {
      mem_.put(op.key, std::move(op.value), next_seq_++);
    } else {
      mem_.del(op.key, next_seq_++);
    }
  }
  maybe_schedule_flush();
  write_lock_.unlock();
  // kv.write: encode CPU, writer-lock queueing, any L0 stall, WAL append
  // and memtable insert — the KV share of a transaction's latency.
  if (auto* tr = trace::Collector::active(); tr != nullptr && batch.trace.valid()) {
    tr->complete(batch.trace, tr->stage_id(stage::kKvWrite), kv_t0, sim_.now());
  }
}

sim::CoTask<void> Db::maybe_stall() {
  // LevelDB-style backpressure: slow every write while L0 is crowded, stop
  // completely when it is full. Holding write_lock_ here is deliberate —
  // it serializes all writers behind the stall, as the real DB does.
  if (l0_files() >= cfg_.l0_slowdown_threshold && l0_files() < cfg_.l0_stop_threshold) {
    stall_slowdowns_++;
    co_await sim::delay(sim_, cfg_.l0_slowdown_delay, "kv.l0_slowdown");
  }
  while (l0_files() >= cfg_.l0_stop_threshold ||
         (imm_.has_value() && mem_.approximate_bytes() >= cfg_.memtable_bytes)) {
    stall_stops_++;
    co_await stall_cv_.wait();
  }
}

void Db::maybe_schedule_flush() {
  if (mem_.approximate_bytes() >= cfg_.memtable_bytes && !imm_.has_value()) {
    imm_.emplace(std::move(mem_));
    mem_ = MemTable();
    flush_requested_ = true;
    work_cv_.notify_all();
  }
}

sim::CoTask<void> Db::background_worker() {
  for (;;) {
    while (!closing_ && !flush_requested_ && pick_compaction_level() < 0) {
      co_await work_cv_.wait();
    }
    if (closing_) break;
    worker_busy_ = true;
    if (flush_requested_) {
      co_await do_flush();
    } else {
      const int level = pick_compaction_level();
      if (level >= 0) co_await do_compaction(level);
    }
    worker_busy_ = false;
    stall_cv_.notify_all();
    idle_cv_.notify_all();
  }
  idle_cv_.notify_all();
}

sim::CoTask<void> Db::do_flush() {
  flush_requested_ = false;
  if (!imm_.has_value()) co_return;
  co_await wal_.sync();
  auto entries = imm_->dump();
  auto table = std::make_shared<SsTable>(next_table_id_++, 0, std::move(entries));
  // Stream the table out in compaction-sized chunks.
  std::uint64_t remaining = table->data_bytes();
  std::uint64_t pos = 0;
  while (remaining > 0) {
    const std::uint64_t chunk = std::min(remaining, cfg_.compaction_io_chunk);
    co_await dev_.submit(dev::IoType::kWrite, pos, chunk);
    pos += chunk;
    remaining -= chunk;
  }
  flush_bytes_ += table->data_bytes();
  levels_[0].insert(levels_[0].begin(), table);  // newest first
  imm_.reset();
  flushes_++;
  work_cv_.notify_all();  // maybe compaction is now needed
}

int Db::pick_compaction_level() const {
  if (int(levels_[0].size()) >= cfg_.l0_compaction_trigger) return 0;
  for (int l = 1; l + 1 < cfg_.max_levels; l++) {
    if (level_bytes(l) > level_target(l)) return l;
  }
  return -1;
}

std::uint64_t Db::level_bytes(int level) const {
  std::uint64_t total = 0;
  for (const auto& t : levels_[std::size_t(level)]) total += t->data_bytes();
  return total;
}

std::uint64_t Db::level_target(int level) const {
  double target = double(cfg_.base_level_bytes);
  for (int l = 1; l < level; l++) target *= cfg_.level_multiplier;
  return std::uint64_t(target);
}

sim::CoTask<void> Db::do_compaction(int level) {
  auto& src = levels_[std::size_t(level)];
  if (src.empty()) co_return;

  std::vector<TablePtr> inputs;
  std::string lo, hi;
  if (level == 0) {
    inputs = src;  // all of L0 (they overlap)
  } else {
    inputs.push_back(src.back());  // oldest file at this level
  }
  lo = inputs.front()->min_key();
  hi = inputs.front()->max_key();
  for (const auto& t : inputs) {
    lo = std::min(lo, t->min_key());
    hi = std::max(hi, t->max_key());
  }

  auto& dst = levels_[std::size_t(level) + 1];
  std::vector<TablePtr> overlapping;
  for (const auto& t : dst) {
    if (t->overlaps(lo, hi)) overlapping.push_back(t);
  }

  // Device I/O: read all inputs, write the merged output.
  std::uint64_t read_bytes = 0;
  for (const auto& t : inputs) read_bytes += t->data_bytes();
  for (const auto& t : overlapping) read_bytes += t->data_bytes();
  for (std::uint64_t done = 0; done < read_bytes;) {
    const std::uint64_t chunk = std::min(read_bytes - done, cfg_.compaction_io_chunk);
    co_await dev_.submit(dev::IoType::kRead, done, chunk);
    done += chunk;
  }

  std::vector<const std::vector<Entry>*> runs;  // newest first
  for (const auto& t : inputs) runs.push_back(&t->entries());
  for (const auto& t : overlapping) runs.push_back(&t->entries());
  bool bottom = true;  // may we drop tombstones? only if nothing lives deeper
  for (int l = level + 2; l < cfg_.max_levels; l++) {
    if (!levels_[std::size_t(l)].empty()) {
      bottom = false;
      break;
    }
  }
  std::vector<Entry> merged = merge_runs(runs, bottom);

  // Split into target-size output files.
  std::vector<TablePtr> outputs;
  std::vector<Entry> current;
  std::uint64_t current_bytes = 0;
  auto emit = [&]() {
    if (current.empty()) return;
    outputs.push_back(
        std::make_shared<SsTable>(next_table_id_++, level + 1, std::move(current)));
    current = {};
    current_bytes = 0;
  };
  for (auto& e : merged) {
    current_bytes += e.encoded_size();
    current.push_back(std::move(e));
    if (current_bytes >= cfg_.target_file_bytes) emit();
  }
  emit();

  std::uint64_t write_bytes = 0;
  for (const auto& t : outputs) write_bytes += t->data_bytes();
  for (std::uint64_t done = 0; done < write_bytes;) {
    const std::uint64_t chunk = std::min(write_bytes - done, cfg_.compaction_io_chunk);
    co_await dev_.submit(dev::IoType::kWrite, done, chunk);
    done += chunk;
  }
  compaction_write_bytes_ += write_bytes;

  // Install: remove inputs from src, overlapping from dst, add outputs
  // keeping dst sorted by min_key.
  auto in_set = [&](const TablePtr& t, const std::vector<TablePtr>& set) {
    return std::find(set.begin(), set.end(), t) != set.end();
  };
  src.erase(std::remove_if(src.begin(), src.end(),
                           [&](const TablePtr& t) { return in_set(t, inputs); }),
            src.end());
  dst.erase(std::remove_if(dst.begin(), dst.end(),
                           [&](const TablePtr& t) { return in_set(t, overlapping); }),
            dst.end());
  dst.insert(dst.end(), outputs.begin(), outputs.end());
  std::sort(dst.begin(), dst.end(),
            [](const TablePtr& a, const TablePtr& b) { return a->min_key() < b->min_key(); });
  compactions_++;
  work_cv_.notify_all();
}

sim::CoTask<bool> Db::read_block(const SsTable& table, std::uint64_t block) {
  if (block_cache_.touch(table.id(), block)) {
    cache_hits_++;
    co_return false;
  }
  cache_misses_++;
  co_await dev_.submit(dev::IoType::kRead, block * 4096, 4096);
  block_cache_.insert(table.id(), block);
  co_return true;
}

sim::CoTask<std::optional<Value>> Db::get(std::string key) {
  if (cpu_ != nullptr) {
    co_await cpu_->consume(Time(double(cfg_.get_cpu) * cfg_.cpu_multiplier));
  }
  if (const MemEntry* e = mem_.get(key)) {
    co_return e->type == EntryType::kPut ? std::optional<Value>(e->value) : std::nullopt;
  }
  if (imm_.has_value()) {
    if (const MemEntry* e = imm_->get(key)) {
      co_return e->type == EntryType::kPut ? std::optional<Value>(e->value) : std::nullopt;
    }
  }
  // Snapshot candidate tables up front: read_block suspends, and a
  // concurrent compaction may reshape levels_ while we wait. The shared_ptr
  // copies keep the snapshot's tables alive and immutable.
  std::vector<TablePtr> candidates = levels_[0];  // newest first
  for (int l = 1; l < cfg_.max_levels; l++) {
    for (const auto& t : levels_[std::size_t(l)]) {
      if (t->key_in_range(key)) {
        candidates.push_back(t);
        break;  // levels >0 are non-overlapping: only one candidate
      }
    }
  }
  for (const auto& t : candidates) {
    auto [entry, touched] = t->get(key);
    if (touched) co_await read_block(*t, t->block_of(key));
    if (entry != nullptr) {
      co_return entry->type == EntryType::kPut ? std::optional<Value>(entry->value)
                                               : std::nullopt;
    }
  }
  co_return std::nullopt;
}

sim::CoTask<std::vector<std::string>> Db::range_keys(std::string lo, std::string hi,
                                                     std::size_t limit) {
  // Merge all sources logically (index structures are in memory; range scans
  // in the OSD are rare control-path work, so we do not charge per-block
  // reads here).
  std::vector<const std::vector<Entry>*> runs;
  std::vector<Entry> mem_entries = mem_.dump();
  runs.push_back(&mem_entries);
  std::vector<Entry> imm_entries;
  if (imm_.has_value()) {
    imm_entries = imm_->dump();
    runs.push_back(&imm_entries);
  }
  for (const auto& t : levels_[0]) runs.push_back(&t->entries());
  for (int l = 1; l < cfg_.max_levels; l++) {
    for (const auto& t : levels_[std::size_t(l)]) {
      if (t->overlaps(lo, hi.empty() ? t->max_key() : hi)) runs.push_back(&t->entries());
    }
  }
  std::vector<Entry> merged = merge_runs(runs, /*drop_deletes=*/true);
  std::vector<std::string> out;
  for (auto& e : merged) {
    if (e.key < lo) continue;
    if (!hi.empty() && e.key >= hi) break;
    out.push_back(e.key);
    if (out.size() >= limit) break;
  }
  co_await sim::yield(sim_);
  co_return out;
}

void Db::close() {
  closing_ = true;
  work_cv_.notify_all();
}

sim::CoTask<void> Db::drain() {
  while (worker_busy_ || flush_requested_ || pick_compaction_level() >= 0) {
    co_await idle_cv_.wait();
    if (closing_) break;
  }
}

std::uint64_t Db::device_write_bytes() const {
  return wal_.device_bytes() + flush_bytes_ + compaction_write_bytes_;
}

double Db::write_amplification() const {
  if (user_bytes_ == 0) return 0.0;
  return double(device_write_bytes()) / double(user_bytes_);
}

std::size_t Db::table_count() const {
  std::size_t n = 0;
  for (const auto& l : levels_) n += l.size();
  return n;
}

}  // namespace afc::kv
