#include "fs/journal.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/rng.h"
#include "common/stage_names.h"

namespace afc::fs {

Journal::Journal(sim::Simulation& sim, dev::Device& nvram, const Config& cfg)
    : sim_(sim), nvram_(nvram), cfg_(cfg), space_(sim, cfg.size_bytes), queue_(sim) {
  sim::spawn(writer_loop());
}

sim::CoTask<void> Journal::reserve(std::uint64_t bytes) {
  co_await space_.acquire(bytes + cfg_.header_bytes);
}

void Journal::release(std::uint64_t bytes) { space_.release(bytes + cfg_.header_bytes); }

sim::CoTask<std::uint64_t> Journal::write_entry(std::uint64_t bytes,
                                                std::vector<std::uint8_t> image,
                                                trace::Span span) {
  if (queue_.closed()) {
    // Closing journal: the entry was reserved but never persisted — it must
    // not be counted as committed (and pushing to a closed channel aborts).
    rejected_writes_++;
    co_return 0;
  }
  const Time submit_t0 = sim_.now();
  sim::OneShot done(sim_);
  Pending p{bytes, &done, std::move(image), /*seq=*/0};
  co_await queue_.push(&p);
  co_await done.wait();
  // submit → durable: queueing behind the current batch plus the aggregated
  // NVRAM write this entry rode in.
  if (auto* tr = trace::Collector::active(); tr != nullptr && span.valid()) {
    tr->complete(span, tr->stage_id(stage::kJournalWrite), submit_t0, sim_.now());
  }
  co_return p.seq;
}

void Journal::append_record(Pending& p) {
  Record r;
  r.seq = next_seq_++;
  r.len = std::uint32_t(p.image.size());
  r.crc = crc32c(p.image.data(), p.image.size());
  r.payload = std::move(p.image);
  r.ring_bytes = p.bytes;
  ring_.push_back(std::move(r));
  p.seq = ring_.back().seq;
}

Journal::Record* Journal::find_record(std::uint64_t seq) {
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), seq,
      [](const Record& r, std::uint64_t s) { return r.seq < s; });
  if (it == ring_.end() || it->seq != seq) return nullptr;
  return &*it;
}

void Journal::mark_applied(std::uint64_t seq) {
  Record* r = find_record(seq);
  if (r == nullptr || r->applied) return;
  r->applied = true;
  r->payload.clear();
  r->payload.shrink_to_fit();
  space_.release(r->ring_bytes + cfg_.header_bytes);
  while (!ring_.empty() && ring_.front().applied) ring_.pop_front();
}

Journal::ReplayResult Journal::restart() {
  ReplayResult res;
  std::size_t stop = ring_.size();
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Record& r = ring_[i];
    if (r.applied) continue;
    if (r.torn) {
      res.torn_tails++;
      stop = i;
      break;
    }
    if (r.payload.size() != r.len ||
        crc32c(r.payload.data(), r.payload.size()) != r.crc) {
      res.crc_failures++;
      stop = i;
      break;
    }
    res.records.push_back(ReplayedRecord{r.seq, r.payload});
  }
  // Truncate the tail: the stop record and everything after it is dropped.
  // Whatever those entries held is lost locally — backfill's job now.
  for (std::size_t i = stop; i < ring_.size(); ++i) {
    Record& r = ring_[i];
    if (r.applied) continue;  // space already freed by mark_applied
    if (i != stop) res.truncated++;
    space_.release(r.ring_bytes + cfg_.header_bytes);
  }
  ring_.erase(ring_.begin() + std::ptrdiff_t(stop), ring_.end());
  // Sequence numbers are never reused: next_seq_ keeps counting past the
  // truncated tail, so a zombie apply for a dropped record can never alias
  // onto a record written after the restart.
  return res;
}

std::size_t Journal::inject_torn_write(std::uint64_t seed) {
  auto drained = queue_.drain();
  const std::size_t n = drained.size();
  if (n == 0) return 0;
  Rng rng(seed ^ 0x70B17A11ull);
  // The interrupted device write got k_full entries down intact, tore the
  // next one mid-sector, and never reached the rest.
  const std::size_t k_full = n / 2;
  std::size_t idx = 0;
  for (Pending* p : drained) {
    if (idx < k_full) {
      append_record(*p);
    } else if (idx == k_full) {
      append_record(*p);
      Record& r = ring_.back();
      r.torn = true;
      const std::size_t keep =
          r.payload.empty() ? 0 : rng.uniform_int(0, r.payload.size() - 1);
      r.payload.resize(keep);
    } else {
      // Never reached the device: lost outright, space freed now.
      space_.release(p->bytes + cfg_.header_bytes);
    }
    idx++;
    // Deliberately no p->done->set(): the daemon dies with this write. The
    // waiters park forever, like RPC waiters stranded by a crash.
  }
  return n;
}

bool Journal::corrupt_record(std::uint64_t seed) {
  std::vector<Record*> eligible;
  for (Record& r : ring_) {
    if (!r.applied && !r.torn && !r.payload.empty()) eligible.push_back(&r);
  }
  if (eligible.empty()) return false;
  Rng rng(seed ^ 0xB17F11Bull);
  Record& r = *eligible[rng.uniform_int(0, eligible.size() - 1)];
  r.payload[rng.uniform_int(0, r.payload.size() - 1)] ^= 0x5a;
  return true;
}

sim::CoTask<void> Journal::writer_loop() {
  for (;;) {
    auto first = co_await queue_.pop();
    if (!first) break;
    // Aggregate whatever else is queued right now into one direct write.
    std::vector<Pending*> batch{*first};
    while (batch.size() < cfg_.max_batch_entries && !queue_.empty()) {
      auto more = co_await queue_.pop();
      if (!more) break;
      batch.push_back(*more);
    }
    std::uint64_t total = cfg_.header_bytes;
    for (const Pending* p : batch) total += p->bytes;
    if (sim_.now() < stall_until_) {
      // Injected device stall: hold the batch until the stall lifts.
      co_await sim::delay(sim_, stall_until_ - sim_.now(), "journal.stall");
    }
    co_await nvram_.submit(dev::IoType::kWrite, write_pos_, total);
    write_pos_ = (write_pos_ + total) % cfg_.size_bytes;
    bytes_written_ += total;
    batches_++;
    entries_ += batch.size();
    for (Pending* p : batch) {
      append_record(*p);
      p->done->set();
    }
  }
}

}  // namespace afc::fs
