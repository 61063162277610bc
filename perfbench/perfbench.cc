// afc_perfbench — the repository's benchmark of record.
//
// Runs one of three fixed workloads against core::ClusterSim and reports:
//   * end-to-end metrics (--trace 0): the modeled cluster's IOPS and latency
//     (a pure function of workload and seed) plus the simulator's own cost
//     (wall time per op, set-up time, peak RSS);
//   * per-layer metrics (--trace 1): a separate run with a trace::Collector
//     and the event-loop profiler installed, reading stage histograms,
//     profiler site counts and component accessors, plus wall-clock timings
//     of each hot layer's public functions.
//
// Every run also checks its outputs (the cluster built is the one defined,
// no failed or unresolved op, a written-then-read-back data check through
// the replicated store, exact repetition) and exits non-zero when any check
// fails. Only public APIs of the simulator are used. See perfbench/README.md.
//
//   afc_perfbench --workload rw4k-file --seed 7 --seconds 20 --trace 0
//   afc_perfbench --selftest --seed 42      # determinism self-test

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "afceph.h"
#include "kv/memtable.h"
#include "store/flashstore/flashstore.h"

#ifndef AFC_PERFBENCH_BUILD_TYPE
#define AFC_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef AFC_PERFBENCH_COMPILER
#define AFC_PERFBENCH_COMPILER "unknown"
#endif

using namespace afc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Build provenance

#if defined(AFC_PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Environment knobs the simulator reads at ClusterSim construction. Any of
/// them would silently change what a workload measures (AFC_STORE=file turns
/// the FlashStore workload into a FileStore run), so the benchmark clears
/// them all before building a cluster.
constexpr const char* kEnvKnobs[] = {
    "AFC_NET_TRANSPORT", "AFC_STORE",      "AFC_MEMBERSHIP", "AFC_SIM_TRACE",
    "AFC_SIM_TRACE_OUT", "AFC_SIM_PROFILE", "AFC_BENCH_JSON",
};

// ---------------------------------------------------------------------------
// Named metrics, printed in insertion order

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back(Metric{name, value, unit});
  }
  double get(const std::string& name) const {
    for (const auto& m : items_)
      if (m.name == name) return m.value;
    return 0.0;
  }
  const std::vector<Metric>& items() const { return items_; }
  bool operator==(const Metrics& o) const {
    if (items_.size() != o.items_.size()) return false;
    for (std::size_t i = 0; i < items_.size(); i++) {
      // Bitwise equality is the determinism contract; -0.0 vs 0.0 or NaN
      // never arise from these counters.
      if (items_[i].name != o.items_[i].name || items_[i].value != o.items_[i].value) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Workload definitions

struct Workload {
  std::string name;
  bool open_loop = false;
  core::ClusterConfig cfg;
  client::WorkloadSpec closed;  // closed loops only
  workload::OpenLoopSpec open;  // open loop only
};

constexpr const char* kWorkloadNames[] = {"rw4k-file", "rr4k-16n", "mix4k-flash-open"};

/// Open-loop stream with a single logical tenant and no in-flight cap: no
/// arrival is ever shed, and each latency runs from the arrival instant.
workload::StreamSpec uncapped_stream(const char* name, double rate, double write_fraction) {
  workload::StreamSpec s;
  s.name = name;
  s.tenant = 0;
  s.arrival.kind = workload::ArrivalConfig::Kind::kPoisson;
  s.arrival.rate = rate;
  s.population.tenants = 1;
  s.population.inflight_cap = ~0u;
  s.write_fraction = write_fraction;
  s.block_size = 4096;
  s.zipf_theta = 0.9;
  return s;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.cfg.profile = core::Profile::afceph();
  w.cfg.replication = 2;
  w.cfg.seed = seed;
  if (name == "rw4k-file") {
    // The paper's headline write path: sustained-state FileStore, node CPU
    // binds; journal, FileStore, omap LSM and SSD GC do most of the work.
    w.cfg.osd_nodes = 4;
    w.cfg.vms = 40;
    w.cfg.sustained = true;
    w.cfg.store_backend = store::Backend::kFile;
    w.closed = client::WorkloadSpec::rand_write(4096, 8);
    w.closed.warmup = 300 * kMillisecond;
    w.closed.runtime = 1000 * kMillisecond;
  } else if (name == "rr4k-16n") {
    // Fig. 12's messenger ceiling: 16 clean, populated nodes, 4096 PGs,
    // uniform 4K random read. The write path sits idle.
    w.cfg.osd_nodes = 16;
    w.cfg.vms = 80;
    w.cfg.pg_num = 4096;
    w.cfg.sustained = false;
    w.cfg.populated = 1;
    w.cfg.store_backend = store::Backend::kFile;
    w.closed = client::WorkloadSpec::rand_read(4096, 8);
    w.closed.warmup = 100 * kMillisecond;
    w.closed.runtime = 200 * kMillisecond;
  } else if (name == "mix4k-flash-open") {
    // Open loop below the knee: reads and writes share PGs, FlashStore and
    // SSDs over Zipf(0.9) offsets, so hot PGs form.
    w.open_loop = true;
    w.cfg.osd_nodes = 4;
    w.cfg.vms = 40;
    w.cfg.sustained = true;
    w.cfg.store_backend = store::Backend::kFlash;
    w.open.warmup = 100 * kMillisecond;
    w.open.runtime = 800 * kMillisecond;
    w.open.streams.push_back(uncapped_stream("reads", 77000.0, 0.0));
    w.open.streams.push_back(uncapped_stream("writes", 33000.0, 1.0));
  } else {
    return std::nullopt;
  }
  return w;
}

/// The cluster as built must be the cluster the workload defines: nothing in
/// the environment or the constructor may have swapped a mechanism.
std::vector<std::string> check_config(const core::ClusterSim& cluster, const Workload& w) {
  std::vector<std::string> errs;
  const core::ClusterConfig& c = cluster.config();
  const core::ClusterConfig& want = w.cfg;
  const net::Connection::Config default_net;
  if (c.store_backend != want.store_backend) errs.push_back("store backend differs");
  if (c.membership.mode != mon::MembershipMode::kOracle) errs.push_back("membership not oracle");
  if (c.net.transport != default_net.transport || c.net.rx_shards != default_net.rx_shards ||
      c.net.send_cpu != default_net.send_cpu || c.net.recv_cpu != default_net.recv_cpu) {
    errs.push_back("net transport differs from the default rung");
  }
  if (c.osd_nodes != want.osd_nodes || c.osds_per_node != want.osds_per_node ||
      c.vms != want.vms || c.pg_num != want.pg_num || c.replication != want.replication ||
      c.sustained != want.sustained || c.seed != want.seed || c.ec_pool || c.qos.enabled ||
      c.client_op_timeout != 0 || c.profile.name != want.profile.name) {
    errs.push_back("cluster shape differs from the workload definition");
  }
  if (cluster.osd_count() != std::size_t(want.osd_nodes) * want.osds_per_node ||
      cluster.vm_count() != want.vms) {
    errs.push_back("built component counts differ");
  }
  return errs;
}

// ---------------------------------------------------------------------------
// One repetition: build, run, drain, check

/// Installs a collector for the lifetime of one traced repetition.
class CollectorGuard {
 public:
  explicit CollectorGuard(bool on) {
    if (!on) return;
    trace::Collector::Config cfg;
    cfg.ring_capacity = 1u << 12;  // histograms see every span; no export
    col_ = std::make_unique<trace::Collector>(cfg);
    trace::Collector::install(col_.get());
  }
  ~CollectorGuard() {
    if (col_ != nullptr && trace::Collector::active() == col_.get()) {
      trace::Collector::install(nullptr);
    }
  }
  CollectorGuard(const CollectorGuard&) = delete;
  CollectorGuard& operator=(const CollectorGuard&) = delete;
  trace::Collector* get() const { return col_.get(); }

 private:
  std::unique_ptr<trace::Collector> col_;
};

struct Rep {
  Metrics modeled;  // end-to-end modeled values + determinism witnesses
  Metrics layers;   // per-layer values read at the end of the window
  double run_wall_s = 0.0;
  double ops_in_run = 0.0;
  double events_in_run = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

std::uint64_t sum_over_vms(core::ClusterSim& c, std::uint64_t (client::VmClient::*f)() const) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < c.vm_count(); i++) n += (c.vm(i).*f)();
  return n;
}

/// Quantile `q` of a latency Histogram, in ms, interpolated by rank inside
/// the bucket that holds it (as Prometheus' histogram_quantile does).
/// Histogram::percentile returns the bucket midpoint, and a bucket is ~1.5%
/// wide, so a p50 steadier than that would read the same on every seed.
double quantile_ms(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  // Value of the r-th smallest sample (1-based), as its bucket's midpoint;
  // the +0.5 keeps percentile()'s floor(q (n - 1)) + 1 on rank r.
  auto at_rank = [&](std::uint64_t r) {
    return n == 1 ? h.percentile(0.0) : h.percentile((double(r - 1) + 0.5) / double(n - 1));
  };
  const std::uint64_t rank = std::uint64_t(std::clamp(q, 0.0, 1.0) * double(n - 1)) + 1;
  const std::uint64_t mid = at_rank(rank);
  // Histogram buckets: exact below 64, then 64 linear sub-buckets per power
  // of two, so the bucket of midpoint `mid` is `width` wide.
  if (mid < 64) return double(mid) / double(kMillisecond);
  const std::uint64_t width = 1ull << (std::bit_width(mid) - 6);
  // The ranks that share the bucket: at_rank() is non-decreasing in r.
  std::uint64_t lo = 1;
  std::uint64_t hi = rank;
  while (lo < hi) {
    const std::uint64_t r = lo + (hi - lo) / 2;
    if (at_rank(r) < mid) lo = r + 1; else hi = r;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {
    const std::uint64_t r = hi - (hi - lo) / 2;
    if (at_rank(r) > mid) hi = r - 1; else lo = r;
  }
  const std::uint64_t last = lo;
  const double frac = (double(rank - first) + 0.5) / double(last - first + 1);
  return (double(mid - width / 2) + frac * double(width)) / double(kMillisecond);
}

/// Median and p99.9 with the sample count; p99.9 is reported only with at
/// least 10 samples beyond it, which the run checks.
void add_latency(Metrics& m, const std::string& prefix, const Histogram& h) {
  m.set(prefix + "p50_ms", quantile_ms(h, 0.50), "ms");
  m.set(prefix + "p99.9_ms", quantile_ms(h, 0.999), "ms");
  m.set(prefix + "samples", double(h.count()), "count");
}

void read_layers(core::ClusterSim& cluster, const core::RunResult& r, double ops,
                 trace::Collector* col, Metrics& m) {
  auto stage = [col](const char* name) {
    return col != nullptr ? col->stage_mean_ms(name) : 0.0;
  };
  double client_writes = 0.0;
  double ssd_bytes = 0.0;
  double journal_bytes = 0.0;
  double journal_entries = 0.0;
  double journal_batches = 0.0;
  double journal_full_stalls = 0.0;
  double store_data_bytes = 0.0;
  double file_meta_reads = 0.0;
  double flash_onode_misses = 0.0;
  double deferred_writes = 0.0;
  double deferred_folds = 0.0;
  double meta_hits = 0.0;
  double meta_misses = 0.0;
  double kv_user = 0.0;
  double kv_dev = 0.0;
  double kv_compactions = 0.0;
  double ssd_util = 0.0;
  double ssd_bus = 0.0;
  double gc_stalls = 0.0;
  Histogram ssd_wlat;
  Histogram ssd_rlat;
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    osd::Osd& o = cluster.osd(i);
    client_writes += double(o.client_writes());
    journal_bytes += double(o.journal().bytes_written());
    journal_entries += double(o.journal().entries_written());
    journal_batches += double(o.journal().batches_written());
    journal_full_stalls += double(o.journal().full_stalls());
    store_data_bytes += double(o.store().data_bytes_written());
    if (auto* fsd = dynamic_cast<fs::FileStore*>(&o.store())) {
      file_meta_reads += double(fsd->metadata_device_reads());
    } else if (auto* fls = dynamic_cast<store::FlashStore*>(&o.store())) {
      flash_onode_misses += double(fls->metadata_device_reads());
      deferred_writes += double(fls->deferred_writes());
      deferred_folds += double(fls->deferred_folds());
    }
    kv_user += double(o.omap_db().user_bytes());
    kv_dev += double(o.omap_db().device_write_bytes());
    kv_compactions += double(o.omap_db().compactions());
    meta_hits += double(o.meta_cache().hits());
    meta_misses += double(o.meta_cache().misses());
    dev::SsdModel& ssd = cluster.osd_ssd(i);
    ssd_bytes += double(ssd.bytes_written());
    ssd_util += ssd.utilization();
    ssd_bus += ssd.bus_utilization();
    gc_stalls += double(ssd.gc_stalls());
    ssd_wlat.merge(ssd.write_latency());
    ssd_rlat.merge(ssd.read_latency());
  }
  const double nosd = double(cluster.osd_count());
  const double user_bytes = client_writes * 4096.0;

  // sim: event cost per op (profiler site counts need the traced run).
  Counters prof;
  if (cluster.simulation().profiling_enabled()) cluster.simulation().profile_into(prof);
  m.set("sim.cpu_grant_per_op", ratio(double(prof.get("sim.site.cpu.grant")), ops), "count");
  m.set("sim.cv_notify_per_op", ratio(double(prof.get("sim.site.sync.cv_notify")), ops),
        "count");
  m.set("sim.queue_depth_hwm", double(prof.get("sim.queue_depth_hwm")), "count");

  // client
  std::set<sim::CpuPool*> client_cpus;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    client_cpus.insert(&cluster.vm(v).messenger().node().cpu());
  }
  double client_cpu = 0.0;
  for (auto* c : client_cpus) client_cpu = std::max(client_cpu, c->utilization());
  m.set("client.io_ms", stage(stage::kClientIo), "ms");
  m.set("client.node_cpu_util", client_cpu, "ratio");

  // net
  m.set("net.msgs_per_op", ratio(double(r.net_messages), ops), "count");
  m.set("net.frames_per_op", ratio(double(r.net_frames), ops), "count");
  m.set("net.wire_ms", stage(stage::kNetWire), "ms");
  m.set("net.nagle_stalls", double(r.net_nagle_stalls), "count");
  m.set("net.batch_occupancy", r.net_batch_occupancy, "ratio");

  // osd
  double osd_cpu_wait_ns = 0.0;
  std::set<sim::CpuPool*> osd_cpus;
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    osd_cpus.insert(&cluster.osd(i).node().cpu());
  }
  for (auto* c : osd_cpus) osd_cpu_wait_ns += double(c->total_queue_wait_ns());
  m.set("osd.node_cpu_util", r.max_osd_node_cpu, "ratio");
  m.set("osd.node_cpu_wait_us_per_op", ratio(osd_cpu_wait_ns / 1e3, ops), "us");
  m.set("osd.dispatch_throttle_ms", stage(stage::kDispatchThrottle), "ms");
  m.set("osd.pg_lock_wait_ms", stage(stage::kPgLockWait), "ms");
  m.set("osd.pg_lock_contended_per_op", ratio(double(r.pg_lock_contended), ops), "count");
  m.set("osd.pending_defers_per_op", ratio(double(r.pending_defers), ops), "count");
  m.set("osd.replication_ms", stage(stage::kReplication), "ms");
  m.set("osd.write_op_ms", stage(stage::kWriteOp), "ms");
  m.set("osd.read_op_ms", stage(stage::kReadOp), "ms");
  m.set("osd.meta_cache_hit_ratio", ratio(meta_hits, meta_hits + meta_misses), "ratio");
  for (unsigned s = 1; s < osd::kStageCount; s++) {
    m.set("osd.stage" + std::to_string(s) + "_ms", r.stage_ms[s], "ms");
  }

  // fs: journal + FileStore + page cache
  m.set("journal.throttle_ms", stage(stage::kJournalThrottle), "ms");
  m.set("journal.write_ms", stage(stage::kJournalWrite), "ms");
  m.set("journal.avg_batch", ratio(journal_entries, journal_batches), "count");
  m.set("journal.full_stalls", journal_full_stalls, "count");
  m.set("fs.apply_ms", stage(stage::kFsApply), "ms");
  m.set("fs.syscalls_per_write", ratio(double(r.syscalls), client_writes), "count");
  m.set("fs.writeback_stalls", double(r.fs_writeback_stalls), "count");
  m.set("fs.metadata_reads_per_op", ratio(file_meta_reads, ops), "count");

  // store: FlashStore
  m.set("store.deferred_writes_per_write", ratio(deferred_writes, client_writes), "ratio");
  m.set("store.deferred_folds", deferred_folds, "count");
  m.set("store.onode_misses_per_op", ratio(flash_onode_misses, ops), "count");
  m.set("store.data_bytes_per_user_byte", ratio(store_data_bytes, user_bytes), "ratio");

  // kv: omap LSM
  m.set("kv.write_ms", stage(stage::kKvWrite), "ms");
  m.set("kv.write_amp", ratio(kv_dev, kv_user), "ratio");
  m.set("kv.stall_slowdowns", double(r.kv_stall_slowdowns), "count");
  m.set("kv.compactions", kv_compactions, "count");

  // dev: SSDs and the NVRAM journal
  m.set("dev.ssd_util", ratio(ssd_util, nosd), "ratio");
  m.set("dev.ssd_bus_util", ratio(ssd_bus, nosd), "ratio");
  m.set("dev.ssd_write_p99_ms", ssd_wlat.p99_ms(), "ms");
  m.set("dev.ssd_read_p99_ms", ssd_rlat.p99_ms(), "ms");
  m.set("dev.ssd_gc_stalls", gc_stalls, "count");
  m.set("dev.ssd_bytes_per_user_byte", ratio(ssd_bytes, user_bytes), "ratio");
  m.set("dev.nvram_bytes_per_user_byte", ratio(journal_bytes, user_bytes), "ratio");
  m.set("device_write_bytes_per_user_byte", ratio(ssd_bytes + journal_bytes, user_bytes),
        "ratio");
}

/// Let every begun op resolve: the closed loops stop issuing at the window
/// end and the open loop stops arriving, but ops already in flight finish.
void drain(core::ClusterSim& cluster) {
  auto& sim = cluster.simulation();
  const Time limit = sim.now() + 5 * kSecond;
  while (sum_over_vms(cluster, &client::VmClient::ops_begun) !=
             sum_over_vms(cluster, &client::VmClient::ops_resolved) &&
         sim.now() < limit) {
    sim.run_until(sim.now() + 10 * kMillisecond);
  }
}

/// End-to-end data check, outside all timings: write known payloads to a
/// fixed seeded set of offsets, read them back, compare the bytes.
std::uint64_t data_check(core::ClusterSim& cluster, std::uint64_t seed) {
  constexpr unsigned kChecks = 24;
  struct Target {
    unsigned vm;
    std::uint64_t off;
    std::uint64_t pattern_seed;
  };
  std::vector<Target> targets;
  std::set<std::pair<unsigned, std::uint64_t>> seen;
  Rng rng(seed ^ 0xda7ac4ec5ull);
  while (targets.size() < kChecks) {
    const unsigned vm = unsigned(rng.uniform_int(0, cluster.vm_count() - 1));
    const std::uint64_t blocks = cluster.vm(vm).image().size() / 4096;
    const std::uint64_t off = rng.uniform_int(0, blocks - 1) * 4096;
    if (!seen.insert({vm, off}).second) continue;
    targets.push_back(Target{vm, off, rng.next()});
  }
  struct State {
    bool finished = false;
    std::uint64_t bad = 0;
  } st;
  sim::spawn_fn([&cluster, &st, targets]() -> sim::CoTask<void> {
    for (const Target& t : targets) {
      if (!co_await cluster.vm(t.vm).write_once(t.off, Payload::pattern(4096, t.pattern_seed))) {
        st.bad++;
      }
    }
    for (const Target& t : targets) {
      auto r = co_await cluster.vm(t.vm).read_once(t.off, 4096);
      const Payload expected = Payload::pattern(4096, t.pattern_seed);
      if (!r.ok || !Payload::bytes(std::move(r.data)).content_equals(expected)) st.bad++;
    }
    st.finished = true;
  });
  auto& sim = cluster.simulation();
  const Time limit = sim.now() + 10 * kSecond;
  while (!st.finished && sim.now() < limit) sim.run_until(sim.now() + 10 * kMillisecond);
  return st.finished ? st.bad : kChecks;
}

Rep run_rep(const Workload& w, bool traced) {
  Rep rep;
  CollectorGuard guard(traced);
  core::ClusterSim cluster(w.cfg);
  for (auto& e : check_config(cluster, w)) rep.errors.push_back("config: " + e);
  if (trace::Collector::active() != guard.get()) rep.errors.push_back("unexpected collector");
  if (cluster.simulation().profiling_enabled()) rep.errors.push_back("profiler enabled by env");
  if (traced) cluster.simulation().enable_profiling();

  // --- the timed window ---------------------------------------------------
  // The program's own load generators: VmClient closed loops recording into
  // a client::RunStats, or the open-loop engine. Both are owned here rather
  // than by ClusterSim::run(), so they outlive the drain below, where ops
  // in flight at the window end still record into them.
  auto& sim = cluster.simulation();
  client::RunStats stats;
  std::optional<workload::OpenLoopEngine> engine;
  Histogram write_lat;  // ops issued and completed inside the window
  Histogram read_lat;
  std::uint64_t arrivals = 0;
  std::uint64_t issued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t open_failed = 0;
  std::uint64_t unfinished = 0;
  const std::uint64_t ev0 = sim.executed_events();
  const auto t1 = Clock::now();
  std::optional<workload::OpenLoopResult> open;
  if (w.open_loop) {
    engine.emplace(cluster, w.open);
    open = engine->run();
  } else {
    stats.window_start = sim.now() + w.closed.warmup;
    stats.window_end = stats.window_start + w.closed.runtime;
    for (std::size_t v = 0; v < cluster.vm_count(); v++) {
      cluster.vm(v).start(w.closed, stats.window_end, &stats);
    }
    sim.run_until(stats.window_end);
  }
  rep.run_wall_s = seconds_since(t1);
  if (open) {
    for (std::size_t i = 0; i < open->streams.size(); i++) {
      // Each stream of these workloads is all reads or all writes.
      const workload::StreamResult& s = open->streams[i];
      (w.open.streams[i].write_fraction >= 1.0 ? write_lat : read_lat).merge(s.lat);
      arrivals += s.arrivals;
      issued += s.issued;
      dropped += s.dropped;
      open_failed += s.failed;
      unfinished += s.issued - s.ok - s.failed;
    }
  } else {
    write_lat = stats.write_lat;
    read_lat = stats.read_lat;
  }
  rep.events_in_run = double(sim.executed_events() - ev0);
  rep.ops_in_run = double(sum_over_vms(cluster, &client::VmClient::ops_resolved));

  // --- modeled end-to-end values -------------------------------------------
  Histogram all_lat = write_lat;
  all_lat.merge(read_lat);
  const Time runtime = w.open_loop ? w.open.runtime : w.closed.runtime;
  const double per_s = double(kSecond) / double(runtime);
  Metrics& m = rep.modeled;
  m.set("iops", double(all_lat.count()) * per_s, "ops/s");
  add_latency(m, "", all_lat);
  m.set("write_iops", double(write_lat.count()) * per_s, "ops/s");
  m.set("read_iops", double(read_lat.count()) * per_s, "ops/s");
  add_latency(m, "write_", write_lat);
  add_latency(m, "read_", read_lat);
  m.set("sim.events_per_op", ratio(rep.events_in_run, rep.ops_in_run), "count");
  if (all_lat.count() < 10000) {
    rep.errors.push_back("fewer than 10 samples beyond p99.9 (" +
                         std::to_string(all_lat.count()) + " samples)");
  }

  // --- per-layer values, read at the window end ----------------------------
  core::RunResult r;
  cluster.collect_osd_stats(r);
  rep.layers.set("client.write_p99_ms", write_lat.p99_ms(), "ms");
  rep.layers.set("client.read_p99_ms", read_lat.p99_ms(), "ms");
  // The closed loops run one op type each; the open loop keeps no series.
  const TimeSeries& series =
      stats.writes_completed >= stats.reads_completed ? stats.write_series : stats.read_series;
  rep.layers.set("client.iops_cov",
                 series.cov(std::size_t(stats.window_start / series.interval()),
                            std::size_t(stats.window_end / series.interval())),
                 "ratio");
  rep.layers.set("workload.arrivals", double(arrivals), "count");
  rep.layers.set("workload.dropped", double(dropped), "count");
  rep.layers.set("workload.unfinished_at_window_end", double(unfinished), "count");
  read_layers(cluster, r, rep.ops_in_run, guard.get(), rep.layers);
  m.set("device_write_bytes_per_user_byte", rep.layers.get("device_write_bytes_per_user_byte"),
        "ratio");

  // --- correctness ----------------------------------------------------------
  if (arrivals != issued || dropped != 0) {
    rep.errors.push_back("open loop: " + std::to_string(arrivals) + " arrivals, " +
                         std::to_string(issued) + " issued, " + std::to_string(dropped) +
                         " dropped");
  }
  drain(cluster);
  const std::uint64_t begun = sum_over_vms(cluster, &client::VmClient::ops_begun);
  const std::uint64_t resolved = sum_over_vms(cluster, &client::VmClient::ops_resolved);
  // Client timeouts are off (check_config), so ops_failed() and the open
  // loop's failed replies never count one op twice.
  const std::uint64_t not_ok = sum_over_vms(cluster, &client::VmClient::ops_failed) + open_failed;
  rep.attempted = begun;
  rep.failed = not_ok + (begun - resolved);
  m.set("fail_frac", ratio(double(rep.failed), double(rep.attempted)), "ratio");
  if (rep.failed != 0) {
    rep.errors.push_back(std::to_string(not_ok) + " failed and " +
                         std::to_string(begun - resolved) + " unresolved ops after drain");
  }
  if (const std::uint64_t bad = data_check(cluster, w.cfg.seed); bad != 0) {
    rep.errors.push_back("data check: " + std::to_string(bad) + " mismatched payloads");
  }
  if (trace::Collector* col = guard.get()) {
    if (col->mismatched() != 0 || col->open_spans() != 0) {
      rep.errors.push_back("trace: " + std::to_string(col->mismatched()) + " mismatched, " +
                           std::to_string(col->open_spans()) + " open spans");
    }
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Process isolation
//
// A destroyed ClusterSim does not return all it allocated (about 1.8 MB per
// 4-node cluster), and each further cluster one process builds sets up more
// slowly (0.14 s growing to 0.26 s over 30 builds of the 16-node cluster).
// So every timed sample runs in a forked child, and all of them start from
// the same process state.

/// Runs `fn` in a forked child and returns the text it produced, or nothing
/// if the child failed.
std::optional<std::string> in_child(const std::function<std::string()>& fn) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string out = fn();
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(1);
      done += std::size_t(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, std::size_t(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

/// A Rep as text lines, with every value's digits: "run ...", then
/// "m|l <name> <value> <unit>" and "e <error>".
std::string encode(const Rep& r) {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof line, "run %.17g %.17g %.17g %llu %llu\n", r.run_wall_s,
                r.ops_in_run, r.events_in_run, static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  s += line;
  for (const auto& [tag, m] : {std::pair{'m', &r.modeled}, std::pair{'l', &r.layers}}) {
    for (const auto& x : m->items()) {
      std::snprintf(line, sizeof line, "%c %s %.17g %s\n", tag, x.name.c_str(), x.value,
                    x.unit.c_str());
      s += line;
    }
  }
  for (const auto& e : r.errors) s += "e " + e + "\n";
  return s;
}

Rep decode(const std::string& s) {
  Rep r;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find('\n', pos);
    if (end == std::string::npos) end = s.size();
    const std::string line = s.substr(pos, end - pos);
    pos = end + 1;
    if (line.rfind("e ", 0) == 0) {
      r.errors.push_back(line.substr(2));
    } else if (line.rfind("run ", 0) == 0) {
      unsigned long long attempted = 0;
      unsigned long long failed = 0;
      std::sscanf(line.c_str(), "run %lf %lf %lf %llu %llu", &r.run_wall_s, &r.ops_in_run,
                  &r.events_in_run, &attempted, &failed);
      r.attempted = attempted;
      r.failed = failed;
    } else if (line.size() > 2) {
      char name[128];
      char unit[32];
      double value = 0.0;
      if (std::sscanf(line.c_str() + 2, "%127s %lf %31s", name, &value, unit) == 3) {
        (line[0] == 'm' ? r.modeled : r.layers).set(name, value, unit);
      }
    }
  }
  return r;
}

/// One repetition in a fresh child process; a child that dies fails it.
Rep isolated_rep(const Workload& w, bool traced) {
  const std::optional<std::string> out = in_child([&] { return encode(run_rep(w, traced)); });
  if (!out) {
    Rep r;
    r.errors.push_back("repetition process failed");
    return r;
  }
  return decode(*out);
}

// ---------------------------------------------------------------------------
// Wall-clock timings of hot public functions, inputs shaped like the workload

template <class Fn>
double time_ns_per_call(std::size_t calls, Fn&& fn) {
  std::vector<double> runs;
  for (int k = 0; k < 5; k++) {
    const auto t0 = Clock::now();
    fn();
    runs.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                   double(calls));
  }
  return median(runs);
}

void time_layer_calls(core::ClusterSim& cluster, std::uint64_t seed, Metrics& m) {
  const core::ClusterConfig& c = cluster.config();
  const std::size_t pages = c.store_backend == store::Backend::kFlash ? c.flash.page_cache_pages
                                                                      : c.fs.page_cache_pages;
  const client::RbdImage& image = cluster.vm(0).image();
  const std::uint64_t objects_per_image = image.object_count();
  const std::uint64_t pages_per_object = image.object_size() / fs::PageCache::kPageSize;

  // Random 4K touches over every VM's objects, as the OSD page caches see them.
  constexpr std::size_t kKeys = 200000;
  Rng rng(seed ^ 0x1a7e5ull);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys(kKeys);
  for (auto& k : keys) {
    k.first = rng.next() % (objects_per_image * cluster.vm_count()) * 0x9e3779b97f4a7c15ull;
    k.second = rng.uniform_int(0, pages_per_object - 1);
  }
  std::uint64_t sink = 0;
  m.set("fs.pagecache_insert_ns", time_ns_per_call(kKeys, [&] {
          fs::PageCache pc(pages);
          for (const auto& k : keys) pc.insert(k.first, k.second);
          sink += pc.size();
        }),
        "ns");
  {
    fs::PageCache pc(pages);
    for (const auto& k : keys) pc.insert(k.first, k.second);
    m.set("fs.pagecache_lookup_ns", time_ns_per_call(kKeys, [&] {
            for (const auto& k : keys) sink += pc.lookup(k.first, k.second) ? 1 : 0;
          }),
          "ns");
  }

  // Omap keys: object names plus a per-op suffix, small virtual values.
  constexpr std::size_t kKv = 50000;
  std::vector<std::string> kv_keys(kKv);
  for (std::size_t i = 0; i < kKv; i++) {
    const std::uint64_t obj = rng.uniform_int(0, objects_per_image - 1);
    kv_keys[i] = image.object_name(obj) + "." + std::to_string(rng.next() % 100000);
  }
  m.set("kv.memtable_put_ns", time_ns_per_call(kKv, [&] {
          kv::MemTable mt(seed);
          std::uint64_t seq = 1;
          for (const auto& k : kv_keys) mt.put(k, kv::Value::virt(180), seq++);
          sink += mt.count();
        }),
        "ns");
  {
    kv::MemTable mt(seed);
    std::uint64_t seq = 1;
    for (const auto& k : kv_keys) mt.put(k, kv::Value::virt(180), seq++);
    m.set("kv.memtable_get_ns", time_ns_per_call(kKv, [&] {
            for (const auto& k : kv_keys) sink += mt.get(k) != nullptr ? 1 : 0;
          }),
          "ns");
  }

  // Object -> PG -> acting set, as every client op resolves its primary.
  constexpr std::size_t kNames = 50000;
  std::vector<std::string> names(kNames);
  for (auto& n : names) {
    n = cluster.vm(rng.uniform_int(0, cluster.vm_count() - 1))
            .image()
            .object_name(rng.uniform_int(0, objects_per_image - 1));
  }
  cluster::ClusterMap& map = cluster.map();
  m.set("cluster.acting_ns", time_ns_per_call(kNames, [&] {
          for (const auto& n : names) sink += map.acting(map.pg_of(n)).front();
        }),
        "ns");
  if (sink == 0x5eed) std::fprintf(stderr, " ");  // keep the timed work observable
}

// ---------------------------------------------------------------------------
// Output

void print_provenance(std::uint64_t seed) {
  std::printf("# build_type=%s compiler=\"%s\" optimized=%d sanitized=%d nproc=%ld seed=%llu\n",
              AFC_PERFBENCH_BUILD_TYPE, AFC_PERFBENCH_COMPILER, kOptimized ? 1 : 0,
              kSanitized ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
              static_cast<unsigned long long>(seed));
}

/// Peak resident set of the largest child process, i.e. of one repetition.
double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_CHILDREN, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_metric_lines(const char* section, const Metrics& m) {
  for (const auto& x : m.items()) {
    std::printf("%s %-36s %.6g %s\n", section, x.name.c_str(), x.value, x.unit.c_str());
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& reported) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& x : reported.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                x.name.c_str(), std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Modes

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
};

void report_errors(const std::string& where, const std::vector<std::string>& errs) {
  for (const auto& e : errs) {
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", where.c_str(), e.c_str());
  }
}

/// The modeled end-to-end metrics reported in the result object, with units.
constexpr std::pair<const char*, const char*> kModeledE2e[] = {
    {"iops", "ops/s"}, {"p50_ms", "ms"}, {"p99.9_ms", "ms"}};

constexpr std::size_t kSetupSamples = 15;

/// Wall time from start to the first simulated op: cluster construction
/// ("populated" objects are synthesized lazily, so there is no prefill I/O).
double time_setup(const Workload& w) {
  const auto t0 = Clock::now();
  core::ClusterSim cluster(w.cfg);
  return seconds_since(t0);
}

int run_timed(const Args& a, const Workload& w) {
  // Set up a fixed number of times, then repeat the fixed workload until the
  // time budget is spent. Every repetition must reproduce the first one's
  // modeled values exactly.
  const auto start = Clock::now();
  bool correct = true;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetupSamples && correct; i++) {
    const std::optional<std::string> s = in_child([&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", time_setup(w));
      return std::string(buf);
    });
    if (s) {
      setup.push_back(std::strtod(s->c_str(), nullptr));
    } else {
      std::fprintf(stderr, "CHECK FAILED [%s]: set-up process failed\n", w.name.c_str());
      correct = false;
    }
  }
  std::vector<Rep> reps;
  while (reps.size() < 2 || seconds_since(start) < a.seconds) {
    reps.push_back(isolated_rep(w, /*traced=*/false));
    const Rep& rep = reps.back();
    report_errors(w.name, rep.errors);
    correct = correct && rep.errors.empty();
    if (!(rep.modeled == reps.front().modeled)) {
      std::fprintf(stderr, "CHECK FAILED [%s]: repetition %zu is not deterministic\n",
                   w.name.c_str(), reps.size());
      correct = false;
    }
  }
  std::vector<double> us_per_op;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& rep : reps) {
    us_per_op.push_back(1e6 * ratio(rep.run_wall_s, rep.ops_in_run));
    std::printf("# rep run_wall_s=%.4f wall_us_per_op=%.4f\n", rep.run_wall_s,
                us_per_op.back());
    attempted += rep.attempted;
    failed += rep.failed;
  }
  const Rep& first = reps.front();
  print_metric_lines("modeled", first.modeled);
  Metrics out;
  for (const auto& [name, unit] : kModeledE2e) out.set(name, first.modeled.get(name), unit);
  // Host load only ever slows a repetition down: the fastest one is the
  // steadiest estimate of what the simulator itself costs.
  out.set("wall_us_per_op", *std::min_element(us_per_op.begin(), us_per_op.end()), "us");
  out.set("setup_s", median(setup), "s");
  out.set("peak_rss_mb", peak_rss_mib(), "MiB");
  std::printf("# repetitions=%zu\n", reps.size());
  print_metric_lines("e2e", out);
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

int run_traced(const Args& a, const Workload& w) {
  // Alternate untraced and traced repetitions: the traced ones give the
  // per-layer numbers, the pair gives the tracing overhead, and both must
  // agree on every modeled value.
  const auto start = Clock::now();
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  std::vector<double> event_ns;
  std::vector<double> events_per_s;
  std::optional<Rep> first_plain;
  std::optional<Rep> first_traced;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  while (traced_us.empty() || seconds_since(start) < a.seconds) {
    for (bool traced : {false, true}) {
      Rep rep = isolated_rep(w, traced);
      report_errors(w.name + (traced ? "/traced" : ""), rep.errors);
      correct = correct && rep.errors.empty();
      attempted += rep.attempted;
      failed += rep.failed;
      const double us = 1e6 * ratio(rep.run_wall_s, rep.ops_in_run);
      if (traced) {
        traced_us.push_back(us);
        if (!first_traced) first_traced = std::move(rep);
      } else {
        plain_us.push_back(us);
        event_ns.push_back(1e9 * ratio(rep.run_wall_s, rep.events_in_run));
        events_per_s.push_back(ratio(rep.events_in_run, rep.run_wall_s));
        if (!first_plain) first_plain = std::move(rep);
      }
    }
  }
  if (!(first_plain->modeled == first_traced->modeled)) {
    std::fprintf(stderr, "CHECK FAILED [%s]: traced modeled values differ from untraced\n",
                 w.name.c_str());
    correct = false;
  }
  Metrics out;
  out.set("sim.events_per_op", first_traced->modeled.get("sim.events_per_op"), "count");
  out.set("sim.events_per_wall_s", median(events_per_s), "1/s");
  out.set("sim.event_ns", median(event_ns), "ns");
  // Fastest repetitions, as for wall_us_per_op.
  out.set("trace.overhead_frac",
          *std::min_element(traced_us.begin(), traced_us.end()) /
                  *std::min_element(plain_us.begin(), plain_us.end()) -
              1.0,
          "ratio");
  for (const auto& x : first_traced->layers.items()) {
    out.set(x.name, x.value, x.unit.c_str());
  }
  {
    // A fresh cluster of the workload's shape supplies the map and images.
    core::ClusterSim cluster(w.cfg);
    time_layer_calls(cluster, w.cfg.seed, out);
  }
  print_metric_lines("modeled", first_traced->modeled);
  print_metric_lines("layer", out);
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

int run_selftest(const Args& a) {
  // At one seed: two untraced runs and one traced run of every workload must
  // agree exactly on every modeled value and on sim.events_per_op.
  bool ok = true;
  for (const char* name : kWorkloadNames) {
    const Workload w = *make_workload(name, a.seed);
    const Rep x = isolated_rep(w, false);
    const Rep y = isolated_rep(w, false);
    const Rep t = isolated_rep(w, true);
    const bool same = x.modeled == y.modeled && x.modeled == t.modeled;
    const bool clean = x.errors.empty() && y.errors.empty() && t.errors.empty();
    report_errors(w.name, x.errors);
    report_errors(w.name, y.errors);
    report_errors(w.name + "/traced", t.errors);
    std::printf("selftest %-18s repeat+traced identical: %s  checks: %s  events_per_op %.6f\n",
                name, same ? "yes" : "NO", clean ? "pass" : "FAIL",
                x.modeled.get("sim.events_per_op"));
    ok = ok && same && clean;
  }
  std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    const char* v = val();
    if (v == nullptr) return false;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return a.selftest || !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a) || (a.trace != 0 && a.trace != 1)) {
    std::fprintf(stderr,
                 "usage: afc_perfbench --workload <rw4k-file|rr4k-16n|mix4k-flash-open> "
                 "--seed N --seconds S --trace 0|1\n"
                 "       afc_perfbench --selftest [--seed N]\n");
    return 2;
  }
  for (const char* k : kEnvKnobs) unsetenv(k);
  print_provenance(a.seed);
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr,
                 "refusing to report: wall metrics from a sanitizer or unoptimised build "
                 "are meaningless (build with -DCMAKE_BUILD_TYPE=Release)\n");
    return 3;
  }
  if (a.selftest) return run_selftest(a);
  const std::optional<Workload> w = make_workload(a.workload, a.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::printf("# workload=%s seconds=%g trace=%d\n", w->name.c_str(), a.seconds, a.trace);
  return a.trace == 1 ? run_traced(a, *w) : run_timed(a, *w);
}
