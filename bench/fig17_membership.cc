// Figure 17 (beyond the paper): self-detected failure handling.
//
// The paper's cluster assumes an oracle: the moment an OSD dies, every
// client and peer knows. This harness measures the detected-mode stack
// instead — OSD-to-OSD heartbeats, monitor quorum arbitration and
// epoch-fenced map distribution — on the two axes that matter:
//
//   fault-free tax  a healthy cluster under load: the heartbeat/beacon
//                   plane must never produce a mark-down (no false
//                   positives), and the paying workload keeps running;
//   detection lag   crash one OSD mid-run: the monitor must mark it down
//                   (and republish the map, re-routing writers) within
//                   hb_grace + 2*hb_interval of the crash — one missed
//                   ping to notice, one report round to arbitrate.
//
// `--smoke` runs both points short and exits nonzero unless the false-down
// count is zero and detection lands inside the bound (check.sh gate).

#include <cstdio>
#include <cstring>
#include <string>

#include "afceph.h"

using namespace afc;

namespace {

// Same small fleet as the chaos soak: 4 nodes x 1 OSD, 2-rep, watchdog and
// client retries on, so a crash exercises the whole degraded-write path.
core::ClusterConfig membership_config(std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 2;
  cfg.vms = 4;
  cfg.pg_num = 64;
  cfg.replication = 2;
  cfg.min_size = 1;
  cfg.sustained = false;
  cfg.image_size = 1 * kGiB;
  cfg.osd.rep_timeout = 40 * kMillisecond;
  cfg.osd.rep_retries = 2;
  cfg.client_op_timeout = 250 * kMillisecond;
  cfg.client_op_retries = 4;
  cfg.seed = seed;
  cfg.membership.mode = mon::MembershipMode::kDetected;
  return cfg;
}

struct Point {
  double write_iops = 0.0;
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_timeouts = 0;
  std::uint64_t markdowns = 0;
  std::uint64_t false_downs = 0;
  std::uint64_t map_deltas = 0;
  std::uint64_t fenced = 0;       // stale ops rejected (client + rep)
  double detect_ms = -1.0;        // crash -> mark-down latency; -1 = none
};

/// One detected-mode run. The drain is a fixed 2 s window (run_until), a
/// measurement choice: hb_sent counts the heartbeats of the whole window,
/// traffic and tail alike. Then close_all() cancels the periodic plane and
/// the residue runs dry.
Point run_point(std::uint64_t seed, Time runtime, Time crash_at, std::uint32_t crash_osd) {
  core::ClusterConfig cfg = membership_config(seed);
  core::ClusterSim cluster(cfg);
  if (crash_at > 0) {
    fault::FaultPlan plan;
    plan.crash(crash_at, crash_osd);
    cluster.install_faults(plan);
  }

  client::RunStats stats;
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 100 * kMillisecond;
  spec.runtime = runtime;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end);
  cluster.simulation().run_until(stats.window_end + 2 * kSecond);  // drain window

  Point p;
  p.write_iops = stats.write_iops();
  const mon::Monitor& mon = *cluster.monitor();
  p.markdowns = mon.counters().get("mon.markdowns");
  p.false_downs = mon.counters().get("mon.false_downs");
  p.map_deltas = mon.counters().get("mon.map_deltas");
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    const auto& c = cluster.osd(o).counters();
    p.hb_sent += c.get("osd.hb_sent");
    p.hb_timeouts += c.get("osd.hb_timeouts");
    p.fenced += c.get("osd.fenced_ops") + c.get("osd.fenced_rep_ops");
  }
  if (crash_at > 0) {
    for (const auto& e : mon.markdowns()) {
      if (e.osd == crash_osd && e.at >= crash_at) {
        p.detect_ms = double(e.at - crash_at) / double(kMillisecond);
        break;
      }
    }
  }

  cluster.close_all();
  cluster.simulation().run();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Fig.17: self-detected membership (heartbeats + monitor + fencing)%s\n",
              smoke ? " [smoke]" : "");

  const core::ClusterConfig cfg = membership_config(1);
  // One missed grace period to suspect, one heartbeat round for the second
  // reporter; the monitor's arbitration itself is message-latency noise.
  const double bound_ms =
      double(cfg.membership.hb_grace + 2 * cfg.membership.hb_interval) / double(kMillisecond);
  const Time runtime = smoke ? 900 * kMillisecond : 3 * kSecond;
  const Time crash_at = 300 * kMillisecond;

  const Point healthy = run_point(1, runtime, /*crash_at=*/0, 0);
  const Point crash = run_point(2, runtime, crash_at, /*crash_osd=*/1);

  Table t({"scenario", "write IOPS", "hb sent", "hb timeouts", "markdowns", "false downs",
           "map deltas", "fenced", "detect ms"});
  t.row({"fault-free", Table::kiops(healthy.write_iops), std::to_string(healthy.hb_sent),
         std::to_string(healthy.hb_timeouts), std::to_string(healthy.markdowns),
         std::to_string(healthy.false_downs), std::to_string(healthy.map_deltas),
         std::to_string(healthy.fenced), "-"});
  t.row({"crash osd.1", Table::kiops(crash.write_iops), std::to_string(crash.hb_sent),
         std::to_string(crash.hb_timeouts), std::to_string(crash.markdowns),
         std::to_string(crash.false_downs), std::to_string(crash.map_deltas),
         std::to_string(crash.fenced), Table::num(crash.detect_ms, 1)});
  t.print();

  int rc = 0;
  if (healthy.hb_sent == 0) {
    std::fprintf(stderr, "FAIL: fault-free run sent no heartbeats (plane not armed)\n");
    rc = 1;
  }
  if (healthy.markdowns != 0 || healthy.false_downs != 0) {
    std::fprintf(stderr, "FAIL: fault-free run marked an OSD down (%llu, false %llu)\n",
                 (unsigned long long)healthy.markdowns,
                 (unsigned long long)healthy.false_downs);
    rc = 1;
  }
  if (crash.detect_ms < 0) {
    std::fprintf(stderr, "FAIL: crashed OSD was never marked down\n");
    rc = 1;
  } else if (crash.detect_ms > bound_ms) {
    std::fprintf(stderr, "FAIL: detection took %.1f ms (bound %.1f ms)\n", crash.detect_ms,
                 bound_ms);
    rc = 1;
  }
  if (crash.false_downs != 0) {
    std::fprintf(stderr, "FAIL: crash run marked a healthy OSD down (%llu)\n",
                 (unsigned long long)crash.false_downs);
    rc = 1;
  }
  if (crash.map_deltas == 0) {
    std::fprintf(stderr, "FAIL: mark-down published no map delta (writers never re-routed)\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("\n%s OK: 0 false downs; crash detected + republished in %.1f ms "
                "(bound %.1f ms)\n",
                smoke ? "smoke" : "fig17", crash.detect_ms, bound_ms);
  }
  return rc;
}
