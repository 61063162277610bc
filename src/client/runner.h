#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "client/rbd.h"
#include "client/workload.h"
#include "cluster/map.h"
#include "common/histogram.h"
#include "common/id_map.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "osd/op.h"

namespace afc::client {

/// Exponential-backoff delay with seeded per-op jitter: `base` scaled by a
/// factor in [0.5, 1.5) drawn from `rng` — the op's own stream, so retry
/// storms de-synchronize without perturbing any other consumer of
/// randomness. Pure function of (base, rng state): deterministic.
Time jittered_backoff(Time base, Rng& rng);

/// Aggregated measurement sink shared by all VMs of one run: latency
/// histograms and IOPS time-series (for fluctuation analysis) plus the
/// measurement window, fio-style (completions during warmup are excluded
/// from the histograms but appear in the series).
struct RunStats {
  Time window_start = 0;
  Time window_end = ~Time(0);
  Histogram write_lat;
  Histogram read_lat;
  TimeSeries write_series{100 * kMillisecond};
  TimeSeries read_series{100 * kMillisecond};
  std::uint64_t writes_completed = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t verify_failures = 0;

  void record(bool is_write, Time issued, Time completed);

  double write_iops() const;
  double read_iops() const;
};

/// One virtual machine: a KRBD-attached block device driven by a closed-loop
/// fio-like load generator with `iodepth` outstanding I/Os. Writes carry
/// deterministic patterns; in verify mode reads check them end-to-end
/// through the whole replicated OSD pipeline.
class VmClient : public net::Receiver {
 public:
  VmClient(sim::Simulation& sim, net::Node& node, cluster::ClusterMap& cmap, RbdImage image,
           std::uint64_t client_id, std::uint64_t seed);
  ~VmClient() override;

  net::Messenger& messenger() { return msgr_; }
  const net::Messenger& messenger() const { return msgr_; }
  const RbdImage& image() const { return image_; }
  std::uint64_t client_id() const { return client_id_; }

  /// Cluster wiring: register the connection to an OSD.
  void add_osd_conn(std::uint32_t osd_id, net::Connection* conn);
  /// The connection to OSD `osd_id`; nullptr when there is none.
  net::Connection* osd_conn(std::uint32_t osd_id) const {
    return osd_id < osd_conns_.size() ? osd_conns_[osd_id] : nullptr;
  }

  /// Client-side CPU charged per I/O (fio + KRBD + dispatch).
  void set_op_cpu(Time cpu) { op_cpu_ = cpu; }

  /// Per-op timeout + resubmit (librados-style): if no reply arrives within
  /// `timeout`, abandon the attempt, back off exponentially and resubmit as
  /// a *fresh* op (new op id, primary recomputed from the current cluster
  /// map, so a crashed primary's successor gets the retry). After
  /// `max_retries` resubmits the op resolves as failed. `timeout == 0`
  /// disables the machinery entirely — the seed behaviour, no timer events.
  void set_op_timeout(Time timeout, unsigned max_retries = 3, double backoff = 2.0) {
    op_timeout_ = timeout;
    op_max_retries_ = max_retries;
    op_backoff_ = backoff;
  }

  /// Detected-mode membership (the detected plane calls this): ops are
  /// stamped with the client's learned epoch, and primaries are resolved
  /// through a per-epoch cache — the client is *lazy*, routing on the last
  /// map it saw until a delta or a fence teaches it better. Without it ops
  /// are stamped epoch 0 and route on the shared map.
  void set_membership() { detected_ = true; }
  std::uint64_t known_epoch() const { return known_epoch_; }

  /// Launch the workload's closed loops; they stop issuing at `stop_at`.
  void start(const WorkloadSpec& spec, Time stop_at, RunStats* sink);

  sim::CoTask<void> on_message(net::Message m) override;

  // Single-shot operations for tests, examples and control paths. I/O that
  // crosses object boundaries is striped into per-object sub-ops, exactly
  // like KRBD.
  sim::CoTask<bool> write_once(std::uint64_t image_off, Payload data);

  /// Open-loop entry used by workload::OpenLoopEngine: issue one I/O stamped
  /// with the given QoS tenant class and await its resolution. Writes carry
  /// a deterministic (non-verify) pattern payload.
  sim::CoTask<bool> submit_io(bool is_write, std::uint64_t image_off, std::uint64_t len,
                              std::uint32_t tenant);
  struct ReadOnce {
    bool ok = false;
    std::vector<std::uint8_t> data;
  };
  sim::CoTask<ReadOnce> read_once(std::uint64_t image_off, std::uint64_t len);

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }

  // --- exactly-once accounting (chaos-soak invariants) -------------------
  std::uint64_t ops_begun() const { return ops_begun_; }
  std::uint64_t ops_resolved() const { return ops_resolved_; }
  std::uint64_t ops_failed() const { return ops_failed_; }
  std::uint64_t op_retries() const { return op_retries_; }
  std::size_t pending_size() const { return pending_.size(); }

  // --- membership accounting (always 0 under kOracle) --------------------
  std::uint64_t fenced_replies() const { return fenced_replies_; }
  std::uint64_t map_updates() const { return map_updates_; }

 private:
  struct PendingOp {
    sim::OneShot* done;
    bool ok = false;
    bool fenced = false;  // rejected on epoch, never admitted: resubmit
    std::uint64_t data_len = 0;
    std::optional<std::vector<std::uint8_t>> data;
  };

  sim::CoTask<void> io_loop(WorkloadSpec spec, Time stop_at, RunStats* sink, unsigned job);
  /// Issue one I/O and wait for its completion; returns the filled pending
  /// record. `payload` is the write body (ignored for reads); `tenant` is
  /// the QoS class (0: the OSD's default profile; only the open-loop
  /// engine stamps another).
  sim::CoTask<PendingOp> issue(bool is_write, std::uint64_t image_off, std::uint64_t len,
                               bool want_data, Payload payload, std::uint32_t tenant = 0);
  /// One per-object sub-op (image_off..+len must not cross an object).
  sim::CoTask<PendingOp> issue_one(bool is_write, std::uint64_t image_off, std::uint64_t len,
                                   bool want_data, Payload payload, std::uint32_t tenant);
  std::uint64_t stable_seed(std::uint64_t image_off) const;
  /// Primary for `pg` as *this client* believes it (detected: per-epoch
  /// cache; oracle: the shared map directly).
  std::uint32_t resolve_primary(std::uint32_t pg);
  /// The object id (PG and interned name) of object `object_no` of the
  /// image, built on first use: a VM re-addresses the same objects for its
  /// whole life, and its pool's pg_num never changes. The table grows on
  /// demand, so building a VM costs nothing.
  const fs::ObjectId& object_id(std::uint64_t object_no);
  /// A delta (or a fence's map_epoch) taught us a newer epoch.
  void learn_epoch(std::uint64_t epoch);

  sim::Simulation& sim_;
  cluster::ClusterMap& cmap_;
  RbdImage image_;
  std::vector<fs::ObjectId> oids_;  // by object number; empty name: not built yet
  std::uint64_t client_id_;
  Rng rng_;
  Time op_cpu_ = 0;
  net::Messenger msgr_;
  std::vector<net::Connection*> osd_conns_;  // by OSD id; nullptr: no connection
  IdMap<PendingOp*> pending_;                // by op id
  std::unordered_set<std::uint64_t> written_offsets_;  // verify mode
  std::uint64_t next_seq_ = 1;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  Time op_timeout_ = 0;  // 0 = no client-side timeouts (seed behaviour)
  unsigned op_max_retries_ = 3;
  double op_backoff_ = 2.0;
  std::uint64_t ops_begun_ = 0;
  std::uint64_t ops_resolved_ = 0;
  std::uint64_t ops_failed_ = 0;
  std::uint64_t op_retries_ = 0;

  // --- membership state (inert under kOracle) -----------------------------
  bool detected_ = false;
  std::uint64_t known_epoch_ = 1;
  // pg -> osd, filled under known_epoch_
  IdMap<std::uint32_t> primary_cache_;
  std::uint64_t fenced_replies_ = 0;
  std::uint64_t map_updates_ = 0;
};

}  // namespace afc::client
