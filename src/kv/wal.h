#pragma once

#include <cstdint>

#include "device/device.h"
#include "sim/task.h"

namespace afc::kv {

/// Write-ahead log of the KV store. Ceph's filestore runs LevelDB *without*
/// per-write fsync (durability comes from the OSD journal), so WAL appends
/// accumulate in the page cache and reach the device in writeback-sized
/// batches; the cost model reflects that: cheap appends, periodic buffered
/// flushes charged to the data SSD.
class Wal {
 public:
  Wal(sim::Simulation& sim, dev::Device& dev, std::uint64_t buffer_bytes = 64 * 1024)
      : sim_(sim), dev_(dev), buffer_bytes_(buffer_bytes) {}

  /// Log a record of `payload_bytes`; suspends only when a writeback flush
  /// is triggered.
  sim::CoTask<void> append(std::uint64_t payload_bytes);

  /// Force out whatever is buffered (memtable flush barrier).
  sim::CoTask<void> sync();

  std::uint64_t device_bytes() const { return device_bytes_; }

 private:
  static constexpr std::uint64_t kRecordOverhead = 12;

  sim::Simulation& sim_;
  dev::Device& dev_;
  std::uint64_t buffer_bytes_;
  std::uint64_t pending_ = 0;
  std::uint64_t device_bytes_ = 0;
  std::uint64_t write_pos_ = 0;
};

}  // namespace afc::kv
