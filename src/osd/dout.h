#pragma once

#include <cstdint>

#include "sim/channel.h"
#include "sim/cpu.h"

namespace afc::osd {

/// Ceph's dout debug-log subsystem (§2.3/§3.3). Two modes:
///
/// *Blocking (community)*: every log entry is formatted inline on the op
/// thread (string construction — allocation-heavy, so the allocator
/// multiplier applies) and handed synchronously to a single writer, which
/// serializes all logging in the OSD. "When small I/O is requested, the
/// logging sometimes takes longer than the actual I/O itself."
///
/// *Non-blocking (AFCeph)*: submission is a cheap bounded-queue push (with
/// the log-cache interning cutting the residual formatting cost); multiple
/// writer threads drain in the background, charging node CPU but never
/// stalling the I/O path. Entries are dropped (and counted) if the queue
/// overflows — the documented trade-off.
class DebugLog {
 public:
  struct Config {
    bool enabled = true;
    bool nonblocking = false;
    unsigned writer_threads = 1;
    Time format_cpu = 3500;         // ns/entry: inline string build
    Time cached_format_cpu = 400;   // ns/entry with log cache
    Time submit_cpu = 250;          // ns/entry async enqueue
    Time writer_cpu = 7000;         // ns/entry, blocking single writer
                                    // (flock + per-entry flush discipline)
    Time writer_cpu_async = 1500;   // ns/entry, non-blocking writers
                                    // (batched appends, no lock handoff)
    std::size_t queue_capacity = 16384;  // entries
    bool log_cache = false;
    double cpu_multiplier = 1.0;    // allocator tax
  };

  DebugLog(sim::Simulation& sim, sim::CpuPool& cpu, const Config& cfg);

  /// Emit `entries` log lines from the op path. In blocking mode this
  /// returns only once the writer has consumed them.
  sim::CoTask<void> log(unsigned entries);

  void close() { queue_.close(); }

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t written() const { return written_; }

 private:
  sim::CoTask<void> writer_loop();

  sim::Simulation& sim_;
  sim::CpuPool& cpu_;
  Config cfg_;
  sim::Semaphore writer_gate_;       // blocking mode: the single log lock
  sim::Channel<unsigned> queue_;     // non-blocking mode: entry batches
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t written_ = 0;
};

}  // namespace afc::osd
