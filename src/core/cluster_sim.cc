#include "core/cluster_sim.h"

#include <cstdio>
#include <cstdlib>

#include "net/profile.h"

namespace afc::core {

namespace {

/// Destination for the env-requested trace export; numbered when one process
/// runs several clusters (e.g. fig03's community + AFCeph profiles).
std::string trace_out_path() {
  const char* v = std::getenv("AFC_SIM_TRACE_OUT");
  std::string path = (v != nullptr && v[0] != '\0') ? v : "afc_trace.json";
  static int exports = 0;
  if (++exports > 1) {
    path += '.';
    path += std::to_string(exports);
  }
  return path;
}

}  // namespace

ClusterSim::ClusterSim(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      cmap_(cluster::ClusterMap::PoolConfig{
          cfg_.pg_num, cfg_.replication, cfg_.min_size,
          cfg_.ec_pool ? cluster::ClusterMap::Scheme::kErasure
                       : cluster::ClusterMap::Scheme::kReplicated,
          cfg_.ec_k, cfg_.ec_m}) {
  // AFC_SIM_PROFILE=1: the event-loop counters print to stderr after run().
  if (trace::Collector::profile_requested()) sim_.enable_profiling();
  if (trace::Collector::env_requested() && trace::Collector::active() == nullptr) {
    tracer_ = std::make_unique<trace::Collector>();
    trace::Collector::install(tracer_.get());
  }
  plane_ = mon::MembershipPlane::make(sim_, cmap_, cfg_.membership, cfg_.seed);
  // Pool-level QoS plumbing: the cluster-wide TenantProfile table becomes
  // every OSD's scheduler config (add_node() inherits it the same way).
  cfg_.osd.qos = cfg_.qos;
  cfg_.ssd.sustained = cfg_.sustained;
  // The flash backend sees the same RAM budget as the file backend —
  // backend choice must not smuggle in a cache-size edge.
  const std::size_t cache_pages = cfg_.sustained ? 16384    // 64 MiB: cold vs the working set
                                                 : 262144;  // 1 GiB: small images stay resident
  cfg_.fs.page_cache_pages = cache_pages;
  cfg_.flash.page_cache_pages = cache_pages;
  store_cfg_ = store::StoreConfig{cfg_.store_backend, cfg_.fs, cfg_.flash};
  // EC pools can never fabricate pre-existing objects: a synthesized shard
  // would not satisfy the stripe's parity equation, so every degraded read
  // and scrub would see phantom corruption. Reads before the first write of
  // an extent return not-found, exactly like a fresh replicated pool.
  store_cfg_.assume_populated =
      !cfg_.ec_pool && (cfg_.populated < 0 ? cfg_.sustained : cfg_.populated != 0);
  throttle_cfg_ = cfg_.profile.ssd_throttles ? osd::ThrottleSet::Config::ssd_tuned()
                                             : osd::ThrottleSet::Config::community();
  cluster_net_ = net::NetProfile::cluster(cfg_.net);
  client_net_ = net::NetProfile::client(cfg_.net, !cfg_.profile.disable_nagle);

  // --- nodes, devices, OSDs --------------------------------------------
  const unsigned total_osds = cfg_.osd_nodes * cfg_.osds_per_node;
  for (unsigned n = 0; n < cfg_.osd_nodes; n++) add_server();
  for (unsigned c = 0; c < cfg_.client_nodes; c++) {
    client_nodes_.push_back(
        std::make_unique<net::Node>(sim_, "client." + std::to_string(c),
                                    net::Node::Config{cfg_.client_node_cores, 1250 * kMiB}));
  }

  for (unsigned i = 0; i < total_osds; i++) add_osd(i / cfg_.osds_per_node);

  // --- PG instantiation --------------------------------------------------
  for (std::uint32_t pg = 0; pg < cfg_.pg_num; pg++) {
    const auto& acting = cmap_.acting(pg);
    for (std::uint32_t osd_id : acting) {
      // EC acting sets can carry kNoOsd holes (more shards than live OSDs).
      if (osd_id == cluster::ClusterMap::kNoOsd) continue;
      osds_[osd_id]->create_pg(pg, acting);
    }
  }

  // --- cluster-network wiring ------------------------------------------
  for (unsigned i = 0; i < total_osds; i++) {
    for (unsigned j = i + 1; j < total_osds; j++) {
      net::Connection* conn = osds_[i]->messenger().connect(osds_[j]->messenger(), cluster_net_);
      osds_[i]->add_peer(j, conn);
      osds_[j]->add_peer(i, conn->reverse());
    }
  }

  // --- VMs ---------------------------------------------------------------
  for (unsigned v = 0; v < cfg_.vms; v++) {
    net::Node& host = *client_nodes_[v % cfg_.client_nodes];
    vms_.push_back(std::make_unique<client::VmClient>(
        sim_, host, cmap_, client::RbdImage("vm" + std::to_string(v), cfg_.image_size),
        /*client_id=*/v + 1, cfg_.seed + 7919 * (v + 1)));
    vms_.back()->set_op_cpu(cfg_.client_op_cpu);
    if (cfg_.client_op_timeout > 0) {
      vms_.back()->set_op_timeout(cfg_.client_op_timeout, cfg_.client_op_retries);
    }
    if (auto* tr = trace::Collector::active()) {
      tr->name_track(trace::client_track(v + 1), "vm." + std::to_string(v));
    }
    for (unsigned i = 0; i < total_osds; i++) {
      net::Connection* conn = vms_.back()->messenger().connect(osds_[i]->messenger(), client_net_);
      vms_.back()->add_osd_conn(i, conn);
    }
  }

  // --- membership plane: mon<->OSD in id order, then mon<->client in
  // client order (publish iterates both), then the agents ---------------
  for (auto& o : osds_) plane_->attach_osd(*o, cluster_net_);
  for (auto& vm : vms_) plane_->attach_client(*vm, client_net_);
  plane_->start();
}

void ClusterSim::add_server() {
  const std::string n = std::to_string(osd_nodes_.size());
  osd_nodes_.push_back(std::make_unique<net::Node>(
      sim_, "node." + n, net::Node::Config{cfg_.node_cores, 1250 * kMiB}));
  nvrams_.push_back(std::make_unique<dev::NvramModel>(sim_, "nvram." + n, cfg_.nvram));
}

void ClusterSim::add_osd(unsigned node) {
  const auto id = std::uint32_t(osds_.size());
  const std::string name = std::to_string(id);
  cmap_.crush().add_osd(id, node);
  // Paper §4.1: "OSD 1~4 uses 3,3,2,2 SSDs respectively", RAID-0.
  dev::SsdModel::Config ssd_cfg = cfg_.ssd;
  ssd_cfg.drives = (id % cfg_.osds_per_node) < 2 ? 3 : 2;
  ssds_.push_back(std::make_unique<dev::SsdModel>(sim_, "ssd." + name, ssd_cfg));
  osds_.push_back(std::make_unique<osd::Osd>(
      sim_, *osd_nodes_[node], *nvrams_[node], *ssds_[id], cmap_, id, cfg_.osd, cfg_.profile,
      store_cfg_, cfg_.kv, throttle_cfg_, cfg_.log, cfg_.journal));
  if (auto* tr = trace::Collector::active()) tr->name_track(trace::osd_track(id), "osd." + name);
}

ClusterSim::~ClusterSim() {
  if (tracer_ != nullptr && trace::Collector::active() == tracer_.get()) {
    trace::Collector::install(nullptr);
  }
}

RunResult ClusterSim::run(const client::WorkloadSpec& spec) {
  if (ran_) return RunResult{};  // single-shot facade
  ran_ = true;

  client::RunStats stats;
  const Time t0 = sim_.now();
  stats.window_start = t0 + spec.warmup;
  stats.window_end = t0 + spec.warmup + spec.runtime;
  for (auto& vm : vms_) vm->start(spec, stats.window_end, &stats);
  sim_.run_until(stats.window_end);

  RunResult r;
  r.write_iops = stats.write_iops();
  r.read_iops = stats.read_iops();
  r.write_lat_ms = stats.write_lat.mean_ms();
  r.read_lat_ms = stats.read_lat.mean_ms();
  r.write_p99_ms = stats.write_lat.p99_ms();
  r.read_p99_ms = stats.read_lat.p99_ms();
  const std::size_t wfrom = std::size_t(stats.window_start / stats.write_series.interval());
  const std::size_t wto = std::size_t(stats.window_end / stats.write_series.interval());
  r.write_cov = stats.write_series.cov(wfrom, wto);
  r.read_cov = stats.read_series.cov(wfrom, wto);
  r.write_lat = stats.write_lat;
  r.read_lat = stats.read_lat;
  r.write_series = stats.write_series;
  r.read_series = stats.read_series;
  r.verify_failures = stats.verify_failures;
  collect_osd_stats(r);
  report_observability();
  return r;
}

void ClusterSim::report_observability() {
  if (sim_.profiling_enabled()) {
    Counters prof;
    sim_.profile_into(prof);
    std::fprintf(stderr, "--- sim profile ---\n%s", prof.to_string().c_str());
  }
  if (tracer_ != nullptr) {
    // Env-owned collector: flush the flight recorder to Chrome trace JSON.
    const std::string path = trace_out_path();
    const bool ok = tracer_->export_chrome_json_file(path);
    std::fprintf(stderr, "--- trace: %llu spans (%llu dropped, %llu mismatched) -> %s%s ---\n",
                 static_cast<unsigned long long>(tracer_->spans_recorded()),
                 static_cast<unsigned long long>(tracer_->spans_dropped()),
                 static_cast<unsigned long long>(tracer_->mismatched()), path.c_str(),
                 ok ? "" : " (WRITE FAILED)");
  }
}

void ClusterSim::collect_osd_stats(RunResult& r) const {
  Histogram stage_merged[osd::kStageCount];
  Histogram total_merged;
  for (const auto& o : osds_) {
    r.pg_lock_wait_ns += o->pg_lock_wait_ns();
    r.pg_lock_contended += o->pg_lock_contended();
    r.pending_defers += o->pending_defers();
    r.journal_full_stalls += o->journal().full_stalls();
    r.journal_full_ns += o->journal().full_stall_ns();
    r.fs_writeback_stalls += o->store().writeback_stalls();
    r.metadata_device_reads += o->store().metadata_device_reads();
    r.syscalls += o->store().syscalls();
    r.kv_write_amplification =
        std::max(r.kv_write_amplification, o->omap_db().write_amplification());
    r.kv_stall_slowdowns += o->omap_db().stall_slowdowns();
    r.scrub_objects_repaired += o->counters().get("osd.scrub_objects_repaired");
    r.ec_reconstruct_reads += o->counters().get("osd.ec_reconstruct_reads");
    r.ec_shards_rebuilt += o->counters().get("osd.ec_shards_rebuilt");
    r.ec_parity_mismatch += o->counters().get("osd.ec_parity_mismatch");
    if (const auto* qos = o->qos(); qos != nullptr) {
      r.qos_enqueued += qos->stats().enqueued;
      r.qos_dispatched += qos->stats().dispatched;
      r.qos_reservation_grants += qos->stats().reservation_grants;
      r.qos_limit_deferrals += qos->stats().limit_deferrals;
    }
    r.hb_sent += o->counters().get("osd.hb_sent");
    for (unsigned s = 0; s < osd::kStageCount; s++) stage_merged[s].merge(o->stage_delta(s));
    total_merged.merge(o->write_total_hist());
  }
  for (unsigned s = 0; s < osd::kStageCount; s++) r.stage_ms[s] = stage_merged[s].mean_ms();
  r.write_path_total_ms = total_merged.mean_ms();
  for (const auto& n : osd_nodes_) {
    r.max_osd_node_cpu = std::max(r.max_osd_node_cpu, n->cpu().utilization());
  }
  net::NetStats net;
  for (const auto& o : osds_) net.merge(o->messenger().net_stats());
  for (const auto& v : vms_) net.merge(v->messenger().net_stats());
  if (const net::Messenger* mon = plane_->messenger(); mon != nullptr) {
    net.merge(mon->net_stats());
  }
  r.net_messages = net.messages;
  r.net_frames = net.frames;
  r.net_batch_occupancy = net.batch_occupancy();
  r.net_nagle_stalls = net.nagle_stalls;
  r.net_shard_wakeups = net.shard_wakeups;
}

fault::FaultInjector& ClusterSim::install_faults(const fault::FaultPlan& plan) {
  if (injector_ == nullptr) {
    std::vector<dev::SsdModel*> ssds;
    std::vector<net::Messenger*> endpoints;
    for (auto& o : osds_) endpoints.push_back(&o->messenger());
    for (auto& s : ssds_) ssds.push_back(s.get());
    for (auto& vm : vms_) endpoints.push_back(&vm->messenger());
    if (net::Messenger* mon = plane_->messenger(); mon != nullptr) endpoints.push_back(mon);
    injector_ = std::make_unique<fault::FaultInjector>(sim_, cmap_, *plane_, std::move(ssds),
                                                       std::move(endpoints), cfg_.seed);
  }
  injector_->install(plan);
  return *injector_;
}

sim::CoTask<std::uint64_t> ClusterSim::decommission_osd(std::uint32_t osd_id) {
  const osd::MapChange change(cmap_);
  cmap_.crush().set_up(osd_id, false);
  co_return co_await plane_->rebalance(change);
}

sim::CoTask<std::uint64_t> ClusterSim::add_node() {
  const osd::MapChange change(cmap_);

  const unsigned node_index = unsigned(osd_nodes_.size());
  add_server();
  const std::size_t first_new = osds_.size();
  for (unsigned k = 0; k < cfg_.osds_per_node; k++) add_osd(node_index);
  // Wire the new OSDs to everyone (existing OSDs and all VMs). A new OSD
  // initiates to every existing one, and a pair of new OSDs is connected
  // once, lower id first, as the constructor does.
  for (std::size_t n = first_new; n < osds_.size(); n++) {
    for (std::size_t o = 0; o < osds_.size(); o++) {
      if (o == n || (o >= first_new && o < n)) continue;
      net::Connection* conn = osds_[n]->messenger().connect(osds_[o]->messenger(), cluster_net_);
      osds_[n]->add_peer(std::uint32_t(o), conn);
      osds_[o]->add_peer(std::uint32_t(n), conn->reverse());
    }
    for (auto& vm : vms_) {
      net::Connection* conn = vm->messenger().connect(osds_[n]->messenger(), client_net_);
      vm->add_osd_conn(std::uint32_t(n), conn);
    }
  }
  for (std::size_t n = first_new; n < osds_.size(); n++) {
    plane_->attach_osd(*osds_[n], cluster_net_);
    if (injector_ != nullptr) injector_->attach_osd(*ssds_[n], osds_[n]->messenger());
  }
  plane_->start();
  co_return co_await plane_->rebalance(change);
}

sim::CoTask<osd::ScrubReport> ClusterSim::deep_scrub(bool repair) {
  co_return co_await osd::deep_scrub(sim_, cmap_, plane_->roster(), repair);
}

void ClusterSim::close_all() {
  if (mon::Monitor* mon = plane_->monitor(); mon != nullptr) mon->close();
  for (auto& o : osds_) o->close();
  for (auto& vm : vms_) vm->messenger().close_all();
  if (net::Messenger* mon = plane_->messenger(); mon != nullptr) mon->close_all();
}

}  // namespace afc::core
