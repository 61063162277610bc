// Figure 13 (beyond the paper): the post-SimpleMessenger transport ladder.
//
// The paper stops at the diagnosis — 4K random read at 16 nodes is capped by
// SimpleMessenger's thread-per-connection receive CPU (Fig. 12). This sweep
// climbs the ladder of transports that the community subsequently built,
// holding the rest of the cluster fixed:
//
//   community        community Ceph profile + SimpleMessenger (the floor)
//   optimized        the paper's optimized AFCeph, still SimpleMessenger —
//                    the rung every later transport must beat
//   sharded          N receive shards per endpoint (AsyncMessenger redesign):
//                    the O(rx_connections) tax becomes an amortized wakeup
//   sharded+batched  sharded + egress frame coalescing
//   bypass           RDMA-like kernel bypass: near-zero per-message CPU
//
// Ladder workload: 4K random read, the messenger-bound point, at 16 and 64
// OSDs (4 and 16 nodes). `--smoke` runs a short 16-OSD ladder and exits
// nonzero unless sharded+batched >= community — check.sh's perf-smoke leg.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "afceph.h"
#include "net/profile.h"

using namespace afc;

namespace {

struct Rung {
  const char* name;
  core::Profile profile;
  net::Connection::Config net;
};

std::vector<Rung> ladder() {
  return {
      {"community", core::Profile::community(), net::NetProfile::community()},
      {"optimized", core::Profile::afceph(), net::NetProfile::optimized()},
      {"sharded", core::Profile::afceph(), net::NetProfile::sharded()},
      {"sharded+batched", core::Profile::afceph(), net::NetProfile::sharded_batched()},
      {"bypass", core::Profile::afceph(), net::NetProfile::bypass()},
  };
}

struct Point {
  double iops = 0.0;
  double cpu = 0.0;
  double occupancy = 0.0;
  std::uint64_t shard_wakeups = 0;
};

Point run_rung(const Rung& rung, unsigned nodes, Time runtime) {
  core::ClusterConfig cfg;
  cfg.profile = rung.profile;
  cfg.net = rung.net;
  cfg.sustained = false;
  cfg.populated = 1;  // reads need pre-existing data
  cfg.osd_nodes = nodes;
  cfg.vms = 5 * nodes;
  cfg.pg_num = 256 * nodes;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_read(4096, 8);
  spec.warmup = 300 * kMillisecond;
  spec.runtime = runtime;
  auto r = cluster.run(spec);
  Point p;
  p.iops = r.read_iops;
  p.cpu = r.max_osd_node_cpu;
  p.occupancy = r.net_batch_occupancy;
  p.shard_wakeups = r.net_shard_wakeups;
  return p;
}

/// Runs the ladder at one cluster size; returns IOPS by rung name.
std::vector<std::pair<std::string, double>> sweep(unsigned nodes, Time runtime) {
  std::printf("\n--- 4K random read, %u nodes (%u OSDs) ---\n", nodes, nodes * 4);
  Table t({"transport", "IOPS", "vs optimized", "max node CPU", "msgs/frame", "shard wakeups"});
  std::vector<std::pair<std::string, double>> out;
  double optimized = 0.0;
  for (const auto& rung : ladder()) {
    const Point p = run_rung(rung, nodes, runtime);
    if (std::strcmp(rung.name, "optimized") == 0) optimized = p.iops;
    t.row({rung.name, Table::kiops(p.iops),
           optimized > 0 ? Table::num(p.iops / optimized, 2) + "x" : "-",
           Table::num(p.cpu, 2), Table::num(p.occupancy, 2),
           std::to_string(p.shard_wakeups)});
    out.emplace_back(rung.name, p.iops);
  }
  t.print();
  return out;
}

double rung_iops(const std::vector<std::pair<std::string, double>>& v, const char* name) {
  for (const auto& [n, iops] : v) {
    if (n == name) return iops;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Fig.13: transport ladder beyond SimpleMessenger (clean state)%s\n",
              smoke ? " [smoke]" : "");

  if (smoke) {
    // Small and fast: one 16-OSD ladder, short runtime. The assertion is the
    // point — the new transports must never lose to the community floor.
    const auto r = sweep(4, 400 * kMillisecond);
    const double community = rung_iops(r, "community");
    const double sb = rung_iops(r, "sharded+batched");
    if (sb < community) {
      std::fprintf(stderr, "FAIL: sharded+batched (%.0f IOPS) < community (%.0f IOPS)\n", sb,
                   community);
      return 1;
    }
    std::printf("\nsmoke OK: sharded+batched (%.0fK) >= community (%.0fK) at 16 OSDs\n",
                sb / 1e3, community / 1e3);
    return 0;
  }

  sweep(4, 1000 * kMillisecond);
  const auto r16 = sweep(16, 1000 * kMillisecond);
  const double optimized = rung_iops(r16, "optimized");
  const double sb = rung_iops(r16, "sharded+batched");
  std::printf(
      "\nthe ladder breaks the Fig. 12 ceiling: sharding removes the per-connection\n"
      "receive tax that capped 16-node 4K random read; batching amortizes per-frame\n"
      "CPU; bypass removes the kernel stack entirely.\n");
  if (sb <= optimized) {
    std::fprintf(stderr, "FAIL: sharded+batched (%.0f IOPS) <= optimized (%.0f IOPS) at 16 nodes\n",
                 sb, optimized);
    return 1;
  }
  return 0;
}
