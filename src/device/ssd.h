#pragma once

#include "device/device.h"

namespace afc::dev {

/// SATA-class flash SSD model (optionally a RAID-0 set of several drives,
/// which is how the paper ties 2-3 SSDs behind each OSD).
///
/// Captured flash behaviours, each of which the paper's analysis leans on:
///  * internal parallelism: per-drive channels; service times independent
///    per channel, so IOPS scales with queue depth until channels saturate;
///  * clean vs. sustained state: once the drive has been written over, every
///    write pays garbage-collection overhead (`sustained_write_factor`) and
///    periodic erase stalls (`gc_pause` every `gc_interval_bytes`);
///  * mixed-pattern interference (FIOS, FAST'12 [15]): a read issued while
///    writes are in flight is delayed behind program operations
///    (`mixed_read_penalty`), the effect the light-weight transaction
///    optimization removes by keeping metadata reads off the write path;
///  * transfer-size dependence: service = fixed op cost + bytes/bandwidth.
class SsdModel : public Device {
 public:
  struct Config {
    unsigned drives = 1;              // RAID-0 width
    unsigned channels_per_drive = 4;  // internal parallelism per drive
    Time read_latency = 90 * kMicrosecond;
    Time write_latency = 80 * kMicrosecond;
    std::uint64_t read_bw_per_drive = 500 * kMiB;   // bytes/sec
    std::uint64_t write_bw_per_drive = 330 * kMiB;  // bytes/sec
    double sustained_write_factor = 6.0;      // small/random writes under GC
    double sustained_seq_factor = 2.0;        // large/streaming writes under GC
    std::uint64_t seq_threshold = 256 * 1024;  // transfer size split
    Time gc_pause = 1500 * kMicrosecond;
    std::uint64_t gc_interval_bytes = 24 * kMiB;  // per drive, sustained only
    Time mixed_read_penalty = 180 * kMicrosecond;
    Time mixed_write_penalty = 30 * kMicrosecond;
    bool sustained = false;
    /// A clean drive flips to sustained after this many bytes are written
    /// (the FTL's pre-erased pool runs out and GC starts). 0 = never (the
    /// run stays in its initial state).
    std::uint64_t clean_budget_bytes = 0;
    /// Multi-stream write support (per-object streams, "Enlightening Flash
    /// Storage to Stream Writes by Objects"): writes carrying a non-zero
    /// stream hint land in per-stream erase blocks, so GC relocates far
    /// less live data. Hinted sustained writes pay `stream_write_factor`
    /// instead of `sustained_write_factor` below the seq threshold, and
    /// only 1/`stream_gc_relief` of their bytes count toward the GC-pause
    /// interval. 0 streams disables awareness (hints are ignored);
    /// unhinted writes are never affected either way.
    unsigned stream_count = 8;
    double stream_write_factor = 2.0;
    double stream_gc_relief = 4.0;
  };

  SsdModel(sim::Simulation& sim, std::string name, const Config& cfg);

  bool sustained() const { return sustained_; }
  std::uint64_t gc_stalls() const { return gc_stalls_; }
  std::uint64_t bytes_since_gc() const { return bytes_since_gc_; }

  /// The daemon this drive backs crashed and came back (fault injection).
  /// The FTL idles through the downtime and catches up on its deferred
  /// erase work, so the partial progress toward the next GC pause does not
  /// leak into the revived daemon's first writes. Cumulative wear state
  /// (gc_stalls_, clean_written_, sustained_) is physical and survives.
  void note_daemon_restart() { bytes_since_gc_ = 0; }

  /// Latency-outlier injection (fault plans): per-command latency is
  /// multiplied by `f` until reset to 1.0 — a drive whose FTL has gone into
  /// a pathological state, the all-flash "slow disk" the paper's tail
  /// latencies come from. Bandwidth is untouched: the outlier drive still
  /// moves bytes, it just responds late.
  void set_slow_factor(double f) { slow_factor_ = f; }

 protected:
  Time latency_time(IoType type, std::uint64_t offset, std::uint64_t len,
                    unsigned stream) override;
  Time transfer_time(IoType type, std::uint64_t len) override;

 private:
  Config cfg_;
  bool sustained_;
  double slow_factor_ = 1.0;
  std::uint64_t bytes_since_gc_ = 0;
  std::uint64_t gc_stalls_ = 0;
  std::uint64_t clean_written_ = 0;
};

}  // namespace afc::dev
