#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ring_queue.h"
#include "osd/op.h"
#include "sim/sync.h"

namespace afc::osd {

/// One placement group on one OSD: the PG lock, the AFCeph pending queue,
/// and the PG-log version bookkeeping (the reason the paper keeps the lock
/// scheme — log entries must be appended in version order for recovery).
class Pg {
 public:
  Pg(sim::Simulation& sim, std::uint32_t id, std::vector<std::uint32_t> acting)
      : id_(id), lock_(sim), acting_(std::move(acting)) {}

  std::uint32_t id() const { return id_; }
  sim::Mutex& lock() { return lock_; }
  const sim::Mutex& lock() const { return lock_; }
  const std::vector<std::uint32_t>& acting() const { return acting_; }
  void set_acting(std::vector<std::uint32_t> a) { acting_ = std::move(a); }

  /// Attribute a PG ordering wait (lock acquisition or pending-queue park,
  /// t0 → now) to `span`. No-op unless a trace collector is installed, the
  /// span is valid, and the wait is non-zero — callers may invoke it
  /// unconditionally without perturbing untraced runs.
  void trace_wait(const trace::Span& span, Time t0, Time now) const;

  // --- AFCeph pending queue (Fig. 5) ---------------------------------
  bool busy = false;
  RingQueue<WorkItem> pending;
  std::uint64_t pending_defers = 0;  // ops parked instead of blocking a worker

  // --- PG log ----------------------------------------------------------
  std::uint64_t next_version() { return ++version_; }
  std::uint64_t version() const { return version_; }
  /// Replicas track the primary's version stream so they can take over as
  /// primary after a map change without reusing log keys.
  void observe_version(std::uint64_t v) {
    if (v > version_) version_ = v;
  }
  std::uint64_t log_floor = 1;  // versions below this are trimmed

  /// omap key for a PG-log entry (zero-padded so lexicographic == numeric).
  std::string log_key(std::uint64_t version) const;
  std::string info_key() const;

 private:
  std::uint32_t id_;
  sim::Mutex lock_;
  std::vector<std::uint32_t> acting_;
  std::uint64_t version_ = 0;
};

}  // namespace afc::osd
