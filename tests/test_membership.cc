// Tests for the detected-membership plane: the monitor's failure
// arbitration (reporter quorum, TTL pruning, flap hysteresis, down-out,
// laggy flags) driven directly through its public report/beacon cores
// without a network, the client's seeded retry jitter, a small end-to-end
// crash-detection smoke over the full heartbeat stack, and the guard that
// oracle mode builds none of it.

#include <gtest/gtest.h>

#include <memory>

#include "client/runner.h"
#include "core/cluster_sim.h"
#include "fault/plan.h"
#include "mon/monitor.h"
#include "sim/simulation.h"

namespace afc::mon {
namespace {

// Monitor over a 4-OSD map, no subscribers: publish() only bumps the epoch,
// so every decision is observable as state + counters + epoch.
struct MonHarness {
  sim::Simulation sim;
  cluster::ClusterMap cmap{cluster::ClusterMap::PoolConfig{64, 2}};
  MembershipConfig cfg;
  std::unique_ptr<Monitor> mon;

  MonHarness() {
    for (unsigned i = 0; i < 4; i++) cmap.crush().add_osd(i, i);
    cmap.set_filter_down(true);
    cfg.mode = MembershipMode::kDetected;
    mon = std::make_unique<Monitor>(sim, cmap, cfg);
  }
};

TEST(Monitor, QuorumRequiresDistinctReporters) {
  MonHarness h;
  // One reporter, however persistent, is not a quorum.
  h.mon->handle_report(0, 2, /*laggy=*/false);
  h.mon->handle_report(0, 2, /*laggy=*/false);
  h.mon->handle_report(0, 2, /*laggy=*/false);
  EXPECT_FALSE(h.mon->is_down(2));
  EXPECT_EQ(h.mon->counters().get("mon.markdowns"), 0u);
  // A second distinct reporter is.
  h.mon->handle_report(1, 2, /*laggy=*/false);
  EXPECT_TRUE(h.mon->is_down(2));
  EXPECT_EQ(h.mon->counters().get("mon.markdowns"), 1u);
  EXPECT_FALSE(h.cmap.crush().is_up(2));
  EXPECT_TRUE(h.cmap.crush().is_in(2));  // down, not out: no data movement
}

TEST(Monitor, ReportTtlPruning) {
  MonHarness h;
  h.mon->handle_report(0, 2, /*laggy=*/false);
  // Let the first report age out, then count again with a fresh reporter.
  h.sim.run_until(h.cfg.report_ttl + kMillisecond);
  h.mon->handle_report(1, 2, /*laggy=*/false);
  EXPECT_FALSE(h.mon->is_down(2)) << "a stale report counted toward quorum";
  // Re-reporting refreshes: now two fresh reporters.
  h.mon->handle_report(0, 2, /*laggy=*/false);
  EXPECT_TRUE(h.mon->is_down(2));
}

TEST(Monitor, FlapBackoffEscalates) {
  MonHarness h;
  const auto quorum = [&] {
    h.mon->handle_report(0, 1, false);
    h.mon->handle_report(2, 1, false);
  };
  quorum();
  ASSERT_TRUE(h.mon->is_down(1));
  const Time down1 = h.sim.now();
  h.mon->handle_beacon(1, /*boot=*/false);
  ASSERT_FALSE(h.mon->is_down(1));

  // A re-mark-down inside the quiet period is deferred, not taken.
  quorum();
  EXPECT_FALSE(h.mon->is_down(1));
  EXPECT_EQ(h.mon->counters().get("mon.markdowns_deferred"), 1u);
  // Past one backoff it sticks again.
  h.sim.run_until(down1 + h.cfg.markdown_backoff + kMillisecond);
  quorum();
  ASSERT_TRUE(h.mon->is_down(1));
  const Time down2 = h.sim.now();
  h.mon->handle_beacon(1, false);

  // Two recent mark-downs double the quiet period: 1x backoff is no longer
  // enough, 2x is.
  h.sim.run_until(down2 + h.cfg.markdown_backoff + kMillisecond);
  quorum();
  EXPECT_FALSE(h.mon->is_down(1));
  h.sim.run_until(down2 + 2 * h.cfg.markdown_backoff + kMillisecond);
  quorum();
  EXPECT_TRUE(h.mon->is_down(1));
}

TEST(Monitor, DownOutIntervalMarksOut) {
  MonHarness h;
  h.mon->handle_report(0, 3, false);
  h.mon->handle_report(1, 3, false);
  ASSERT_TRUE(h.mon->is_down(3));
  EXPECT_FALSE(h.mon->is_out(3));
  const std::uint64_t epoch_down = h.cmap.epoch();
  h.sim.run_until(h.sim.now() + h.cfg.down_out_interval + kMillisecond);
  EXPECT_TRUE(h.mon->is_out(3));
  EXPECT_EQ(h.mon->counters().get("mon.markouts"), 1u);
  EXPECT_FALSE(h.cmap.crush().is_in(3));  // only now does placement change
  EXPECT_GT(h.cmap.epoch(), epoch_down);
}

TEST(Monitor, BeaconMarksUpAndAutoIn) {
  MonHarness h;
  h.mon->handle_report(0, 3, false);
  h.mon->handle_report(1, 3, false);
  h.sim.run_until(h.sim.now() + h.cfg.down_out_interval + kMillisecond);
  ASSERT_TRUE(h.mon->is_out(3));
  // The boot beacon after replay: up again AND back in placement.
  h.mon->handle_beacon(3, /*boot=*/true);
  EXPECT_FALSE(h.mon->is_down(3));
  EXPECT_FALSE(h.mon->is_out(3));
  EXPECT_TRUE(h.cmap.crush().is_up(3));
  EXPECT_TRUE(h.cmap.crush().is_in(3));
  EXPECT_EQ(h.mon->counters().get("mon.markups"), 1u);
}

TEST(Monitor, MarkUpCancelsPendingDownOut) {
  MonHarness h;
  h.mon->handle_report(0, 3, false);
  h.mon->handle_report(1, 3, false);
  ASSERT_TRUE(h.mon->is_down(3));
  h.mon->handle_beacon(3, false);  // heals before the down-out deadline
  h.sim.run_until(h.sim.now() + h.cfg.down_out_interval + kMillisecond);
  EXPECT_FALSE(h.mon->is_out(3)) << "stale down-out timer fired after mark-up";
  EXPECT_EQ(h.mon->counters().get("mon.markouts"), 0u);
}

TEST(Monitor, LaggySelfReportTrustedAndExpires) {
  MonHarness h;
  // Self-report (op-age watermark): trusted without quorum.
  h.mon->handle_report(2, 2, /*laggy=*/true);
  EXPECT_TRUE(h.mon->is_laggy(2));
  EXPECT_FALSE(h.mon->is_down(2));  // gray, not dead
  // Unrefreshed, the flag expires.
  h.sim.run_until(h.sim.now() + h.cfg.laggy_ttl + kMillisecond);
  EXPECT_FALSE(h.mon->is_laggy(2));
  EXPECT_EQ(h.mon->counters().get("mon.laggy_cleared"), 1u);
}

TEST(Monitor, LaggyPeerReportsNeedQuorum) {
  MonHarness h;
  h.mon->handle_report(0, 2, /*laggy=*/true);
  EXPECT_FALSE(h.mon->is_laggy(2)) << "one peer RTT observation flagged an OSD";
  h.mon->handle_report(1, 2, /*laggy=*/true);
  EXPECT_TRUE(h.mon->is_laggy(2));
}

TEST(Monitor, LaggyRefreshExtendsExpiry) {
  MonHarness h;
  h.mon->handle_report(2, 2, /*laggy=*/true);
  h.sim.run_until(h.sim.now() + h.cfg.laggy_ttl / 2);
  h.mon->handle_report(2, 2, /*laggy=*/true);  // refresh at half TTL
  h.sim.run_until(h.sim.now() + (h.cfg.laggy_ttl * 3) / 4);
  EXPECT_TRUE(h.mon->is_laggy(2)) << "refresh did not extend the flag";
  h.sim.run_until(h.sim.now() + h.cfg.laggy_ttl);
  EXPECT_FALSE(h.mon->is_laggy(2));
}

TEST(JitteredBackoff, SeededAndBounded) {
  const Time base = 10 * kMillisecond;
  Rng a(42), b(42), c(43);
  bool varied = false;
  Time prev = 0;
  for (int i = 0; i < 256; i++) {
    const Time va = client::jittered_backoff(base, a);
    EXPECT_EQ(va, client::jittered_backoff(base, b));  // same seed, same draw
    EXPECT_GE(va, base / 2);
    EXPECT_LT(va, base + base / 2);
    if (i > 0 && va != prev) varied = true;
    prev = va;
  }
  EXPECT_TRUE(varied);
  // A different seed diverges somewhere in the stream.
  Rng a2(42);
  bool diverged = false;
  for (int i = 0; i < 256 && !diverged; i++) {
    diverged = client::jittered_backoff(base, a2) != client::jittered_backoff(base, c);
  }
  EXPECT_TRUE(diverged);
}

// End-to-end: a real crash on the full stack (heartbeats over the
// messenger, reports over the mon link, quorum arbitration) is detected
// within hb_grace + 2*hb_interval, with zero false positives. No workload:
// the heartbeat plane runs on its own timers.
TEST(Membership, CrashDetectedWithinGraceEndToEnd) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 1;
  cfg.pg_num = 32;
  cfg.replication = 2;
  cfg.seed = 7;
  cfg.membership.mode = MembershipMode::kDetected;
  core::ClusterSim cluster(cfg);

  const Time crash_at = 200 * kMillisecond;
  const Time downtime = 300 * kMillisecond;
  fault::FaultPlan plan;
  plan.crash_restart(crash_at, /*osd=*/2, downtime);
  cluster.install_faults(plan);

  cluster.simulation().run_until(1200 * kMillisecond);

  const Monitor& mon = *cluster.monitor();
  ASSERT_EQ(mon.markdowns().size(), 1u);
  EXPECT_EQ(mon.markdowns()[0].osd, 2u);
  const Time bound = crash_at + cfg.membership.hb_grace + 2 * cfg.membership.hb_interval;
  EXPECT_GT(mon.markdowns()[0].at, crash_at);
  EXPECT_LE(mon.markdowns()[0].at, bound);
  // The restart's boot beacon marked it up again.
  ASSERT_EQ(mon.markups().size(), 1u);
  EXPECT_EQ(mon.markups()[0].osd, 2u);
  EXPECT_GE(mon.markups()[0].at, crash_at + downtime);
  EXPECT_EQ(mon.counters().get("mon.false_downs"), 0u);
  EXPECT_FALSE(mon.is_down(2));

  cluster.close_all();
  cluster.simulation().run();
}

// The oracle guard: an oracle-mode cluster builds no membership plane at
// all — no agent on any OSD, no monitor, no heartbeat tick queued, before
// or after traffic — so its event stream is the pre-membership one.
// Detected mode gives every OSD an agent whose tick stays armed.
TEST(Membership, OracleBuildsNoPlaneDetectedArmsEveryAgent) {
  for (const MembershipMode mode : {MembershipMode::kOracle, MembershipMode::kDetected}) {
    SCOPED_TRACE(mode == MembershipMode::kOracle ? "oracle" : "detected");
    const bool detected = mode == MembershipMode::kDetected;
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::afceph();
    cfg.osd_nodes = 4;
    cfg.osds_per_node = 1;
    cfg.client_nodes = 1;
    cfg.vms = 2;
    cfg.pg_num = 32;
    cfg.sustained = false;
    cfg.image_size = 256 * kMiB;
    cfg.membership.mode = mode;
    core::ClusterSim cluster(cfg);

    const sim::Simulation& sim = cluster.simulation();
    const std::size_t ticks = detected ? cluster.osd_count() : 0;
    EXPECT_EQ(cluster.monitor() != nullptr, detected);
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      EXPECT_EQ(cluster.osd(i).membership() != nullptr, detected) << "osd." << i;
    }
    EXPECT_EQ(sim.pending_daemon_events(), ticks);

    client::WorkloadSpec spec = client::WorkloadSpec::rand_write(4096, 4);
    spec.warmup = 20 * kMillisecond;
    spec.runtime = 80 * kMillisecond;
    const core::RunResult r = cluster.run(spec);
    EXPECT_GT(r.write_iops, 0.0);
    EXPECT_EQ(sim.pending_daemon_events(), ticks);
    EXPECT_EQ(r.hb_sent > 0, detected);

    cluster.close_all();
    cluster.simulation().run();
  }
}

}  // namespace
}  // namespace afc::mon
