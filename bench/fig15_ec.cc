// Figure 15 (beyond the paper): erasure coding vs replication on the same
// all-flash complement. The paper's pools are replicated; this harness
// quantifies what an EC(4+2) pool trades for its 1.5x storage overhead
// (vs 3x for 3-replication) on three axes:
//
//   A  healthy 4K random-write latency/IOPS, 8 identical OSDs, 3-rep vs
//      EC(4+2). Every EC write encodes the stripe and fans sub-ops to k+m=6
//      shard holders instead of 3 full copies, so latency is expected to
//      trail replication — the `--smoke` gate (scripts/check.sh) fails the
//      build if EC healthy write p99 exceeds 2x the 3-rep p99.
//   B  degraded-read penalty: a 6-OSD EC pool with no spare loses one OSD,
//      so every read whose data shard lived there must gather k surviving
//      shards and decode (osd.ec_reconstruct_reads). Reported as read
//      p99 healthy vs degraded on identical offered load.
//   C  recovery after 1- and 2-OSD loss on 8 OSDs: replication re-copies
//      whole objects from a surviving replica; EC rebuilds exactly the lost
//      shard positions by decode-from-peers. Reported as drain time after
//      the crash plus units recovered (objects pushed vs shards rebuilt).

#include <cstdio>
#include <cstring>
#include <string>

#include "afceph.h"

using namespace afc;

namespace {

bool g_smoke = false;

// One OSD per node so "lose an OSD" and "lose a node" coincide and both
// schemes spread shards/replicas over identical failure domains.
core::ClusterConfig base_config(bool ec, unsigned nodes) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = nodes;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 2;
  cfg.vms = 4;
  cfg.pg_num = 64;
  cfg.sustained = false;
  cfg.populated = 0;
  cfg.replication = 3;
  if (ec) {
    cfg.ec_pool = true;
    cfg.ec_k = 4;
    cfg.ec_m = 2;
  }
  return cfg;
}

// --- Phase A: healthy 4K random write, 3-rep vs EC(4+2) -------------------

core::RunResult run_healthy(bool ec) {
  core::ClusterConfig cfg = base_config(ec, 8);
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 8);
  spec.warmup = g_smoke ? 150 * kMillisecond : 300 * kMillisecond;
  spec.runtime = g_smoke ? 500 * kMillisecond : 1500 * kMillisecond;
  return cluster.run(spec);
}

// --- Phase B: degraded-read penalty on a spare-less EC pool ---------------

struct DegradedResult {
  client::RunStats healthy;
  client::RunStats degraded;
  core::RunResult cluster;  // counters incl. ec_reconstruct_reads
};

DegradedResult run_degraded_reads() {
  core::ClusterConfig cfg = base_config(/*ec=*/true, /*nodes=*/6);
  // Small images so the sequential populate pass covers every block — reads
  // then always hit live stripes instead of fast-failing on holes.
  cfg.image_size = (g_smoke ? 4 : 8) * kMiB;
  // Reads aimed at the dead OSD must time out and re-target, not hang.
  cfg.client_op_timeout = 10 * kMillisecond;
  cfg.client_op_retries = 3;
  core::ClusterSim cluster(cfg);

  const Time t_pop = (g_smoke ? 600 : 1000) * kMillisecond;
  const Time read_win = (g_smoke ? 300 : 600) * kMillisecond;
  const Time t_crash = t_pop + read_win + 50 * kMillisecond;
  const Time t_deg0 = t_crash + 50 * kMillisecond;  // let retargeting settle

  fault::FaultPlan plan;
  plan.crash(t_crash, /*osd=*/1);  // permanent: no spare can absorb it
  cluster.install_faults(plan);

  // Populate: sequential writes cover the whole image. ClusterSim::run()
  // would tear its RunStats down while io_loops are still parked, so every
  // window drives the VMs directly against long-lived local sinks.
  client::RunStats pop;
  pop.window_start = 0;
  pop.window_end = t_pop;
  auto wspec = client::WorkloadSpec::seq_write(4096, 8);
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(wspec, t_pop, &pop);
  }
  cluster.simulation().run_until(t_pop);

  DegradedResult out;
  auto rspec = client::WorkloadSpec::rand_read(4096, 8);
  out.healthy.window_start = t_pop;
  out.healthy.window_end = t_pop + read_win;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(rspec, out.healthy.window_end, &out.healthy);
  }
  cluster.simulation().run_until(t_deg0);

  out.degraded.window_start = t_deg0;
  out.degraded.window_end = t_deg0 + read_win;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(rspec, out.degraded.window_end, &out.degraded);
  }
  cluster.simulation().run_until(out.degraded.window_end);
  cluster.simulation().run();  // drain timeouts/retries
  cluster.collect_osd_stats(out.cluster);
  cluster.close_all();
  cluster.simulation().run();
  return out;
}

// --- Phase C: recovery after 1- and 2-OSD loss ----------------------------

struct RecoveryResult {
  double recovery_ms = 0.0;  // crash -> event queue drained
  std::uint64_t units = 0;   // objects pushed (rep) / shards rebuilt (EC)
};

RecoveryResult run_recovery(bool ec, unsigned losses) {
  core::ClusterConfig cfg = base_config(ec, 8);
  cfg.image_size = (g_smoke ? 4 : 8) * kMiB;
  cfg.client_op_timeout = 10 * kMillisecond;
  core::ClusterSim cluster(cfg);

  const Time t_pop = (g_smoke ? 600 : 1000) * kMillisecond;
  const Time t_crash = t_pop + 100 * kMillisecond;

  fault::FaultPlan plan;
  plan.crash(t_crash, 1);
  if (losses > 1) plan.crash(t_crash, 3);
  auto& inj = cluster.install_faults(plan);

  client::RunStats pop;
  pop.window_start = 0;
  pop.window_end = t_pop;
  auto wspec = client::WorkloadSpec::seq_write(4096, 8);
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(wspec, t_pop, &pop);
  }
  cluster.simulation().run_until(t_crash + kMillisecond);
  cluster.simulation().run();  // recovery runs to quiescence

  RecoveryResult out;
  out.recovery_ms = double(cluster.simulation().now() - t_crash) / double(kMillisecond);
  core::RunResult r;
  cluster.collect_osd_stats(r);
  if (ec) {
    out.units = r.ec_shards_rebuilt;
  } else {
    out.units = inj.counters().get("fault.backfills");
  }
  cluster.close_all();
  cluster.simulation().run();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Fig.15: EC(4+2) vs 3-replication on identical flash%s\n",
              g_smoke ? " [smoke]" : "");

  std::printf("\n--- A: healthy 4K random write, 8 OSDs ---\n");
  auto rep = run_healthy(/*ec=*/false);
  auto ec = run_healthy(/*ec=*/true);
  {
    Table t({"scheme", "IOPS", "mean ms", "p99 ms", "storage overhead"});
    t.row({"3-replication", Table::kiops(rep.write_iops), Table::num(rep.write_lat_ms, 2),
           Table::num(rep.write_p99_ms, 2), "3.0x"});
    t.row({"EC(4+2)", Table::kiops(ec.write_iops), Table::num(ec.write_lat_ms, 2),
           Table::num(ec.write_p99_ms, 2), "1.5x"});
    t.print();
  }

  std::printf("\n--- B: degraded reads, EC(4+2) on 6 OSDs, 1 OSD lost ---\n");
  auto deg = run_degraded_reads();
  {
    Table t({"window", "read IOPS", "mean ms", "p99 ms"});
    t.row({"healthy", Table::kiops(deg.healthy.read_iops()),
           Table::num(deg.healthy.read_lat.mean_ms(), 2),
           Table::num(deg.healthy.read_lat.p99_ms(), 2)});
    t.row({"degraded", Table::kiops(deg.degraded.read_iops()),
           Table::num(deg.degraded.read_lat.mean_ms(), 2),
           Table::num(deg.degraded.read_lat.p99_ms(), 2)});
    t.print();
    std::printf("reconstructed reads (decode from k survivors): %llu\n",
                static_cast<unsigned long long>(deg.cluster.ec_reconstruct_reads));
  }

  std::printf("\n--- C: recovery on 8 OSDs (drain time after loss) ---\n");
  {
    Table t({"scheme", "lost", "recovery ms", "units recovered"});
    for (unsigned losses : {1u, 2u}) {
      auto r3 = run_recovery(false, losses);
      t.row({"3-replication", std::to_string(losses), Table::num(r3.recovery_ms, 1),
             std::to_string(r3.units) + " objects"});
      auto re = run_recovery(true, losses);
      t.row({"EC(4+2)", std::to_string(losses), Table::num(re.recovery_ms, 1),
             std::to_string(re.units) + " shards"});
    }
    t.print();
  }

  std::printf(
      "\nEC trades write latency (encode + k+m sub-ops) and degraded-read\n"
      "latency (gather k + decode) for a 2x smaller storage footprint;\n"
      "recovery moves only the lost shard positions instead of whole objects.\n");

  if (g_smoke) {
    // Perf gate: the EC write path may cost more than replication, but not
    // pathologically so. 2x p99 headroom matches the fig14 isolation gate.
    if (!(ec.write_p99_ms <= 2.0 * rep.write_p99_ms)) {
      std::printf("SMOKE FAIL: EC(4+2) healthy write p99 %.2fms > 2x 3-rep %.2fms\n",
                  ec.write_p99_ms, rep.write_p99_ms);
      return 1;
    }
    if (deg.cluster.ec_reconstruct_reads == 0) {
      std::printf("SMOKE FAIL: degraded window served no reconstructed reads\n");
      return 1;
    }
    std::printf("smoke: PASS (EC p99 %.2fms <= 2x 3-rep p99 %.2fms, %llu decode reads)\n",
                ec.write_p99_ms, rep.write_p99_ms,
                static_cast<unsigned long long>(deg.cluster.ec_reconstruct_reads));
  }
  return 0;
}
