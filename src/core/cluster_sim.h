#pragma once

#include <algorithm>
#include <array>
#include <memory>

#include "client/runner.h"
#include "core/profile.h"
#include "core/trace.h"
#include "device/nvram.h"
#include "device/ssd.h"
#include "fault/injector.h"
#include "mon/plane.h"
#include "osd/osd.h"
#include "osd/scrub.h"

namespace afc::core {

/// Full-cluster configuration, defaulted to the paper's testbed (§4.1,
/// Fig. 8): 4 OSD nodes x 4 OSD daemons (10 SSDs per node RAID-0'd 3/3/2/2
/// behind the OSDs, one 8 GB NVRAM journal device per node), 5 client nodes
/// hosting up to 16 VMs each, 10 GbE, replication 2.
struct ClusterConfig {
  unsigned osd_nodes = 4;
  unsigned osds_per_node = 4;
  unsigned client_nodes = 5;
  unsigned vms = 16;
  unsigned node_cores = 12;
  unsigned client_node_cores = 16;
  std::uint32_t pg_num = 1024;  // power of two
  unsigned replication = 2;
  /// Pool min_size: durable replicas required before a write acks. 0 (the
  /// default) means "= replication" — no degraded acks, seed behaviour.
  /// For erasure pools, 0 means "= k+1" (see ClusterMap::ack_floor()).
  unsigned min_size = 0;
  /// Erasure-coded pool: stripe every object into ec_k data + ec_m parity
  /// shards instead of full-copy replication. Off by default — with no EC
  /// pool the replication scheme and every event it schedules are
  /// byte-identical to the seed.
  bool ec_pool = false;
  unsigned ec_k = 4;
  unsigned ec_m = 2;
  /// Client-side per-op timeout + resubmit (librados-style). 0 disables —
  /// the seed behaviour; chaos/fault runs set it so client ops survive OSD
  /// crashes and lossy links.
  Time client_op_timeout = 0;
  unsigned client_op_retries = 3;
  /// Sustained state: SSDs saturated (GC active), cluster 80% full (objects
  /// pre-exist), caches cold relative to the working set. Clean state:
  /// fresh SSDs and small images.
  bool sustained = true;
  /// Objects pre-exist (cluster pre-filled) independent of device wear:
  /// -1 = follow `sustained`; 0/1 force. Read benchmarks on clean devices
  /// need this so there is data to read.
  int populated = -1;
  /// Client-side CPU per I/O (fio + KRBD + client messenger dispatch),
  /// charged to the fixed pool of client nodes.
  Time client_op_cpu = 82 * kMicrosecond;
  std::uint64_t image_size = 20 * kGiB;  // per VM block device
  std::uint64_t seed = 42;

  /// Per-tenant/per-pool QoS (dmClock at every OSD), declared once at
  /// cluster level — the pool's TenantProfile table — and plumbed into each
  /// OSD the cluster builds (including nodes added later). Off by default.
  osd::QosConfig qos;

  /// Membership & failure detection; the mode picks the membership plane
  /// (mon/plane.h). kOracle (default) keeps the omniscient semantics —
  /// crashes instantly flip the shared CRUSH map, no heartbeats, no
  /// monitor, byte-identical event stream. kDetected builds a monitor node,
  /// starts OSD<->OSD heartbeats, and routes every membership decision
  /// through failure reports + epoch-fenced map deltas.
  mon::MembershipConfig membership;

  Profile profile;
  osd::OsdConfig osd;
  dev::SsdModel::Config ssd;
  dev::NvramModel::Config nvram;
  fs::FileStore::Config fs;
  /// Object-store backend per OSD: kFile (FileStore + external NVRAM
  /// journal — the default, byte-identical to the pre-FlashStore tree) or
  /// kFlash (raw-device FlashStore).
  store::Backend store_backend = store::Backend::kFile;
  store::FlashStore::Config flash;
  kv::Db::Config kv;
  fs::Journal::Config journal;
  net::Connection::Config net;
  osd::DebugLog::Config log;
};

/// Everything a bench harness reports about one run.
struct RunResult {
  double write_iops = 0.0;
  double read_iops = 0.0;
  double write_lat_ms = 0.0;  // mean
  double read_lat_ms = 0.0;
  double write_p99_ms = 0.0;
  double read_p99_ms = 0.0;
  /// Coefficient of variation of per-interval IOPS over the measurement
  /// window — the paper's "fluctuation".
  double write_cov = 0.0;
  double read_cov = 0.0;
  Histogram write_lat;
  Histogram read_lat;
  TimeSeries write_series;
  TimeSeries read_series;
  std::uint64_t verify_failures = 0;

  // Aggregated internal evidence for the paper's four causes.
  Time pg_lock_wait_ns = 0;
  std::uint64_t pg_lock_contended = 0;
  std::uint64_t pending_defers = 0;
  std::uint64_t journal_full_stalls = 0;
  Time journal_full_ns = 0;
  std::uint64_t fs_writeback_stalls = 0;
  std::uint64_t metadata_device_reads = 0;
  std::uint64_t syscalls = 0;
  double kv_write_amplification = 0.0;
  double max_osd_node_cpu = 0.0;
  std::uint64_t kv_stall_slowdowns = 0;
  // Integrity layer: scrub repair (zero in fault-free runs).
  std::uint64_t scrub_objects_repaired = 0;
  // Erasure coding (all zero for replicated pools): degraded reads served by
  // decode, shards rebuilt by recovery, stripes whose parity check failed.
  std::uint64_t ec_reconstruct_reads = 0;
  std::uint64_t ec_shards_rebuilt = 0;
  std::uint64_t ec_parity_mismatch = 0;
  /// Mean per-stage write-path latency (Fig. 3), ms, index = osd::Stage.
  std::array<double, osd::kStageCount> stage_ms{};
  double write_path_total_ms = 0.0;
  // Transport layer (cluster-wide net::NetStats): frame/batch/shard evidence
  // for the messenger ladder. net_frames == net_messages when batching never
  // engaged; occupancy is mean messages per wire frame.
  std::uint64_t net_messages = 0;
  std::uint64_t net_frames = 0;
  double net_batch_occupancy = 0.0;
  std::uint64_t net_nagle_stalls = 0;
  std::uint64_t net_shard_wakeups = 0;
  // QoS scheduler evidence (all zero when ClusterConfig::qos is disabled).
  std::uint64_t qos_enqueued = 0;
  std::uint64_t qos_dispatched = 0;
  std::uint64_t qos_reservation_grants = 0;
  std::uint64_t qos_limit_deferrals = 0;
  // Heartbeats sent cluster-wide (zero under kOracle). The monitor's own
  // decisions are read from ClusterSim::monitor()->counters().
  std::uint64_t hb_sent = 0;
};

/// Builds a simulated Ceph cluster (community or AFCeph per the profile)
/// and runs one fio-style workload against it. This is the top-level public
/// API used by all benches and examples.
class ClusterSim {
 public:
  explicit ClusterSim(ClusterConfig cfg);
  ~ClusterSim();
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  /// Run one workload to completion (single use per ClusterSim).
  RunResult run(const client::WorkloadSpec& spec);

  // --- component access (tests, examples, custom drivers) --------------
  sim::Simulation& simulation() { return sim_; }
  cluster::ClusterMap& map() { return cmap_; }
  std::size_t osd_count() const { return osds_.size(); }
  osd::Osd& osd(std::size_t i) { return *osds_[i]; }
  std::size_t vm_count() const { return vms_.size(); }
  client::VmClient& vm(std::size_t i) { return *vms_[i]; }
  net::Node& osd_node(std::size_t i) { return *osd_nodes_[i]; }
  dev::SsdModel& osd_ssd(std::size_t i) { return *ssds_[i]; }
  const ClusterConfig& config() const { return cfg_; }
  /// The op-trace collector observing this cluster, or nullptr when tracing
  /// is off. Installed by the constructor when AFC_SIM_TRACE is set; tests
  /// and benches may instead install their own before construction.
  trace::Collector* tracer() const { return trace::Collector::active(); }

  /// Build a fault::FaultInjector over this cluster's components and arm
  /// `plan`. Call before run(); an empty plan schedules nothing. Returns the
  /// injector so the caller can read its counters afterwards.
  fault::FaultInjector& install_faults(const fault::FaultPlan& plan);

  /// The cluster monitor, or nullptr under kOracle (no monitor is built).
  mon::Monitor* monitor() { return plane_->monitor(); }

  // --- elasticity & failure handling -------------------------------------
  // Both changes rebalance through the membership plane: under kDetected
  // the monitor then publishes the new epoch to every agent and client.
  /// Take an OSD out of the CRUSH map (failure / decommission), recompute
  /// placement, and re-replicate the affected PGs from surviving members.
  /// Quiesce client traffic first. Returns the number of objects pushed.
  sim::CoTask<std::uint64_t> decommission_osd(std::uint32_t osd_id);

  /// Add one server node with the standard OSD complement, wire it into the
  /// cluster, the clients and the membership plane, and rebalance PGs onto
  /// it (paper Fig. 12's expansion, live). Returns the number of objects
  /// migrated.
  sim::CoTask<std::uint64_t> add_node();

  /// Deep scrub every PG (osd/scrub.h); with `repair`, rebuild every
  /// missing or inconsistent copy from clean copies only. Quiesce traffic
  /// first.
  using ScrubReport = osd::ScrubReport;
  sim::CoTask<ScrubReport> deep_scrub(bool repair);

  /// Close all OSD queues (worker coroutines drain and exit).
  void close_all();

  /// Collect OSD-side aggregates into `r` (also done by run()).
  void collect_osd_stats(RunResult& r) const;

  /// Flush the env-owned observability instruments (AFC_SIM_PROFILE report,
  /// AFC_SIM_TRACE Chrome-JSON export) to stderr/disk. run() calls this;
  /// custom drivers that bypass run() — e.g. workload::OpenLoopEngine —
  /// call it once their drive is complete. No-op when neither is enabled.
  void report_observability();

 private:
  /// A new OSD server: its node and its NVRAM journal device.
  void add_server();
  /// The next OSD id on server `node`: CRUSH entry, SSD array and daemon.
  void add_osd(unsigned node);

  ClusterConfig cfg_;
  /// Derived from cfg_ once by the constructor; add_node() reuses them.
  store::StoreConfig store_cfg_;
  osd::ThrottleSet::Config throttle_cfg_;
  net::Connection::Config cluster_net_;  // OSD<->OSD and mon<->OSD links
  net::Connection::Config client_net_;   // VM<->OSD and mon<->VM links
  /// Owned only when this ClusterSim installed the collector itself (env
  /// opt-in); run() then also exports the Chrome JSON on completion.
  std::unique_ptr<trace::Collector> tracer_;
  sim::Simulation sim_;
  cluster::ClusterMap cmap_;
  std::vector<std::unique_ptr<net::Node>> osd_nodes_;
  std::vector<std::unique_ptr<net::Node>> client_nodes_;
  std::vector<std::unique_ptr<dev::NvramModel>> nvrams_;
  std::vector<std::unique_ptr<dev::SsdModel>> ssds_;
  std::vector<std::unique_ptr<osd::Osd>> osds_;
  std::vector<std::unique_ptr<client::VmClient>> vms_;
  /// Owns the roster (every OSD by id) and, under kDetected, the monitor.
  std::unique_ptr<mon::MembershipPlane> plane_;
  std::unique_ptr<fault::FaultInjector> injector_;
  bool ran_ = false;
};

}  // namespace afc::core
