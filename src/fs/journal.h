#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/trace.h"
#include "device/device.h"
#include "sim/channel.h"
#include "sim/sync.h"

namespace afc::fs {

/// Ceph FileJournal on NVRAM: a ring buffer of encoded transactions written
/// with direct I/O. An entry is *committed* once its (possibly batched)
/// journal write completes; its ring space is freed only after the filestore
/// has applied the transaction. When the filestore falls behind, the ring
/// fills and `reserve()` blocks — the "journal is full / system gets blocked
/// until data is flushed to filestore" stall that shapes the paper's Fig. 10
/// 32K-write fluctuation.
///
/// Record format (the integrity layer): each committed entry is retained in
/// a replayable ring image as a `Record` — sequence number, payload length,
/// CRC32C over the payload, and the encoded transaction itself. The image
/// is host-side state mirroring what the simulated NVRAM holds; its size is
/// independent of the simulated entry size (virtual payloads encode as
/// pattern descriptors). On restart the OSD replays the ring from the last
/// filestore-applied sequence: CRC-verify each record, stop at the first
/// torn or corrupt one, truncate the tail, and hand the survivors back for
/// idempotent re-apply (see `restart()`).
class Journal {
 public:
  struct Config {
    std::uint64_t size_bytes = 2 * kGiB;  // paper: 8 GB NVRAM / 4 OSDs
    std::uint64_t header_bytes = 4096;    // per-write alignment + header
    unsigned max_batch_entries = 32;
  };

  /// One surviving journal record handed back by restart().
  struct ReplayedRecord {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;  // encoded fs::Transaction image
  };

  /// Outcome of a crash-recovery scan of the ring (see restart()).
  struct ReplayResult {
    std::vector<ReplayedRecord> records;  // committed, unapplied, CRC-clean
    std::uint64_t torn_tails = 0;     // scan stopped at a torn record
    std::uint64_t crc_failures = 0;   // scan stopped at a corrupt record
    std::uint64_t truncated = 0;      // further unapplied records dropped
  };

  Journal(sim::Simulation& sim, dev::Device& nvram, const Config& cfg);

  /// Reserve ring space for an entry (blocks while the journal is full).
  sim::CoTask<void> reserve(std::uint64_t bytes);

  /// Free reserved space that no entry will use (a reservation whose
  /// write was rejected). Written entries free their space through
  /// mark_applied().
  void release(std::uint64_t bytes);

  /// Durably write one reserved entry of `bytes` simulated bytes; resumes
  /// at commit. Concurrent submitters are aggregated into one device write
  /// (journal batching). The encoded transaction `image` is checksummed and
  /// retained in the replayable ring until mark_applied(). A valid `span`
  /// attributes the submit→commit latency to that op in the trace
  /// collector (stage journal.write). Returns the assigned sequence number,
  /// or 0 when the journal is already closed: the entry is rejected
  /// (counted, NOT committed) — a closing journal must never report
  /// durability it cannot provide.
  sim::CoTask<std::uint64_t> write_entry(std::uint64_t bytes,
                                         std::vector<std::uint8_t> image,
                                         trace::Span span = {});

  /// The filestore has applied the transaction in record `seq`: drop its
  /// payload, free its ring space. Idempotent; unknown (already-truncated)
  /// sequences are ignored — a stale apply racing a crash-recovery
  /// truncation must not touch an unrelated record.
  void mark_applied(std::uint64_t seq);

  /// Crash-recovery scan, called by the OSD on restart *before* backfill.
  /// Walks retained records in sequence order, skipping applied ones:
  /// CRC-clean records are returned for idempotent re-apply (they remain
  /// retained until mark_applied); the first torn or CRC-failing record
  /// stops the scan, and it plus every later unapplied record is dropped
  /// and its space freed — those writes are lost locally and must come back
  /// via peer backfill.
  ReplayResult restart();

  /// Fault injection (kTornWrite): the queued-but-not-yet-submitted entries
  /// die mid-persist — the first half become durable full records, the next
  /// becomes a *torn* record (full length/CRC in the header, truncated
  /// payload), the rest are lost outright. None of their waiters resume
  /// (the daemon is about to crash; stranded frames are the same
  /// deliberately-leaked parked coroutines as crashed RPC waiters). Batches
  /// already submitted to the NVRAM device still complete — the device
  /// finishes its DMA on supercap. Returns the number of entries affected.
  std::size_t inject_torn_write(std::uint64_t seed);

  /// Fault injection (kBitFlip on journal media): flip one byte in a
  /// seeded-random retained record's payload so its CRC no longer matches.
  /// Returns false when no eligible record is retained.
  bool corrupt_record(std::uint64_t seed);

  /// Stop the writer loop (drain first for clean shutdown). Entries already
  /// queued are still written; new write_entry() calls are rejected.
  void close() { queue_.close(); }

  /// Fault injection: the journal device stops completing writes until sim
  /// time `t` (an NVRAM firmware hiccup / supercap recharge stall). Batches
  /// queue up behind the stall and drain as one burst when it lifts;
  /// reserve() backpressure upstream is unchanged.
  void stall_until(Time t) {
    if (t > stall_until_) stall_until_ = t;
  }

  std::uint64_t entries_written() const { return entries_; }
  std::uint64_t batches_written() const { return batches_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t full_stalls() const { return space_.blocked_acquires(); }
  Time full_stall_ns() const { return space_.total_wait_ns(); }
  std::uint64_t bytes_in_use() const { return space_.in_use(); }
  std::uint64_t rejected_writes() const { return rejected_writes_; }
  std::uint64_t records_retained() const { return ring_.size(); }
  double average_batch() const {
    return batches_ == 0 ? 0.0 : double(entries_) / double(batches_);
  }

 private:
  /// A committed entry retained in the ring image until applied.
  struct Record {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;  // header: payload length at commit
    std::uint32_t crc = 0;  // header: CRC32C over the full payload
    std::vector<std::uint8_t> payload;
    std::uint64_t ring_bytes = 0;  // simulated entry size (for space accounting)
    bool applied = false;
    bool torn = false;  // persisted only a prefix (payload.size() < len)
  };

  struct Pending {
    std::uint64_t bytes = 0;
    sim::OneShot* done = nullptr;
    std::vector<std::uint8_t> image;  // encoded transaction
    std::uint64_t seq = 0;            // assigned at commit
  };

  sim::CoTask<void> writer_loop();
  void append_record(Pending& p);
  Record* find_record(std::uint64_t seq);

  sim::Simulation& sim_;
  dev::Device& nvram_;
  Config cfg_;
  sim::Semaphore space_;
  sim::Channel<Pending*> queue_;
  // Retained records, strictly increasing in seq (gaps allowed: crash
  // truncation never reuses sequence numbers, so a zombie apply completing
  // after a restart can never alias onto a newer record).
  std::deque<Record> ring_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t write_pos_ = 0;
  std::uint64_t entries_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t rejected_writes_ = 0;
  Time stall_until_ = 0;
};

}  // namespace afc::fs
