#include "device/ssd.h"

namespace afc::dev {

SsdModel::SsdModel(sim::Simulation& sim, std::string name, const Config& cfg)
    : Device(sim, std::move(name), cfg.drives * cfg.channels_per_drive),
      cfg_(cfg),
      sustained_(cfg.sustained) {}

Time SsdModel::latency_time(IoType type, std::uint64_t /*offset*/, std::uint64_t len,
                            unsigned stream) {
  if (type == IoType::kRead) {
    double t = double(cfg_.read_latency);
    if (inflight_writes() > 0) t += double(cfg_.mixed_read_penalty);
    return Time(t * slow_factor_);
  }
  if (type == IoType::kFlush) return Time(200.0 * kMicrosecond * slow_factor_);
  if (!sustained_ && cfg_.clean_budget_bytes != 0) {
    clean_written_ += len;
    // The pre-erased pool is exhausted: GC from here on.
    if (clean_written_ >= cfg_.clean_budget_bytes) sustained_ = true;
  }
  const bool hinted = stream != 0 && cfg_.stream_count != 0;
  double t = double(cfg_.write_latency);
  if (sustained_) {
    // GC punishes small random writes (full read-modify-write of flash
    // blocks) much harder than large streaming ones. Stream-hinted writes
    // are segregated into per-stream erase blocks: data with one owner and
    // one lifetime invalidates together, so GC relocates little of it.
    const double small_factor =
        hinted ? cfg_.stream_write_factor : cfg_.sustained_write_factor;
    t *= len < cfg_.seq_threshold ? small_factor : cfg_.sustained_seq_factor;
    bytes_since_gc_ +=
        hinted ? std::uint64_t(double(len) / cfg_.stream_gc_relief) : len;
    const std::uint64_t interval = cfg_.gc_interval_bytes * cfg_.drives;
    if (bytes_since_gc_ >= interval) {
      bytes_since_gc_ -= interval;
      gc_stalls_++;
      t += double(cfg_.gc_pause);
    }
  }
  if (inflight_reads() > 0) t += double(cfg_.mixed_write_penalty);
  return Time(t * slow_factor_);
}

Time SsdModel::transfer_time(IoType type, std::uint64_t len) {
  // RAID-0: transfers stripe over all drives, aggregate bandwidth.
  if (type == IoType::kRead) {
    const double bw = double(cfg_.read_bw_per_drive) * cfg_.drives;
    return Time(double(len) / bw * double(kSecond));
  }
  double bw = double(cfg_.write_bw_per_drive) * cfg_.drives;
  if (sustained_) {
    // Steady-state GC consumes a share of the write bandwidth too.
    bw /= len < cfg_.seq_threshold ? 1.5 : cfg_.sustained_seq_factor;
  }
  return Time(double(len) / bw * double(kSecond));
}

}  // namespace afc::dev
