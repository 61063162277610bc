// Figure 12 reproduction: "AFCeph scale-out test" — clean-state clusters of
// 4 / 8 / 16 OSD nodes, same per-node hardware, client load scaled with the
// cluster.
//
// Paper shapes: throughput grows ~linearly with node count for sequential
// and random, read and write — EXCEPT 4K random read at 16 nodes, which
// falls short of linear because SimpleMessenger's thread-per-connection
// receive path burns CPU per connection (connection count grows with the
// cluster).

#include <cstdio>
#include <string>

#include "afceph.h"

using namespace afc;

namespace {

struct Point {
  double value;  // IOPS or MB/s
  double cpu;
};

Point run_nodes(unsigned nodes, const client::WorkloadSpec& base, bool write) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.sustained = false;  // paper: "SSDs are clean state"
  cfg.populated = write ? 0 : 1;  // reads need pre-existing data
  cfg.osd_nodes = nodes;
  cfg.vms = 5 * nodes;  // offered load scales with the cluster
  cfg.pg_num = 256 * nodes;
  core::ClusterSim cluster(cfg);
  auto spec = base;
  spec.warmup = 300 * kMillisecond;
  spec.runtime = base.block_size >= kMiB ? 3 * kSecond : 1000 * kMillisecond;
  auto r = cluster.run(spec);
  return Point{write ? r.write_iops : r.read_iops, r.max_osd_node_cpu};
}

void sweep(const char* name, const client::WorkloadSpec& spec, bool write, bool as_mbps) {
  std::printf("\n--- %s ---\n", name);
  Table t({"nodes", as_mbps ? "MB/s" : "IOPS", "scaling vs 4 nodes", "max node CPU"});
  double base = 0.0;
  for (unsigned nodes : {4u, 8u, 16u}) {
    auto p = run_nodes(nodes, spec, write);
    const double v = as_mbps ? p.value * double(spec.block_size) / double(kMiB) : p.value;
    if (nodes == 4) base = v;
    t.row({std::to_string(nodes), as_mbps ? Table::num(v, 0) : Table::kiops(v),
           Table::num(v / base, 2) + "x", Table::num(p.cpu, 2)});
  }
  t.print();
}

}  // namespace

int main() {
  std::printf("Fig.12: AFCeph scale-out, 4 -> 8 -> 16 nodes (clean state)\n");
  sweep("4K random write", client::WorkloadSpec::rand_write(4096, 8), true, false);
  sweep("4K random read", client::WorkloadSpec::rand_read(4096, 8), false, false);
  sweep("4M sequential write", client::WorkloadSpec::seq_write(4 * kMiB, 4), true, true);
  sweep("4M sequential read", client::WorkloadSpec::seq_read(4 * kMiB, 4), false, true);
  std::printf(
      "\npaper: all workloads scale ~linearly except 4K random read at 16 nodes\n"
      "(SimpleMessenger CPU ceiling).\n");
  return 0;
}
