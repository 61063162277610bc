// Tests for the fault-injection subsystem: FaultPlan construction and
// seeded generation, injector crash/restart semantics against a live
// cluster, the primary-side replication watchdog, client-side
// timeout/resubmit, and ordered acks across a failed write. The chaos soak
// (bench/chaos.cc) covers the long randomized runs; these are the targeted
// unit checks.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "afceph.h"

namespace afc {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan: builders, seeded generation, describe()

TEST(FaultPlan, BuildersAppendTypedEvents) {
  fault::FaultPlan plan;
  plan.crash_restart(100 * kMillisecond, 2, 50 * kMillisecond);
  plan.ssd_slow(10 * kMillisecond, 1, 4.0, 20 * kMillisecond);
  plan.link_drop(30 * kMillisecond, 0, 3, 0.25, 40 * kMillisecond);

  ASSERT_EQ(plan.events.size(), 4u);  // crash_restart contributes two
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kOsdCrash);
  EXPECT_EQ(plan.events[0].at, 100 * kMillisecond);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kOsdRestart);
  EXPECT_EQ(plan.events[1].at, 150 * kMillisecond);
  EXPECT_EQ(plan.events[1].osd, 2u);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 4.0);
  EXPECT_DOUBLE_EQ(plan.events[3].p, 0.25);
  EXPECT_EQ(plan.events[3].peer, 3u);
}

TEST(FaultPlan, RandomIsSeedStable) {
  const Time warmup = 100 * kMillisecond;
  const Time horizon = 1000 * kMillisecond;
  fault::FaultPlan a = fault::FaultPlan::random(7, warmup, horizon, 12, 4);
  fault::FaultPlan b = fault::FaultPlan::random(7, warmup, horizon, 12, 4);
  fault::FaultPlan c = fault::FaultPlan::random(8, warmup, horizon, 12, 4);

  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultPlan, RandomStaysInWindowAndHeals) {
  const Time warmup = 150 * kMillisecond;
  const Time horizon = 900 * kMillisecond;
  fault::FaultPlan plan = fault::FaultPlan::random(3, warmup, horizon, 20, 4);
  EXPECT_FALSE(plan.empty());

  int crashes = 0, restarts = 0, torn = 0;
  for (const auto& e : plan.events) {
    EXPECT_GE(e.at, warmup);
    EXPECT_LE(e.at, horizon);
    EXPECT_LT(e.osd, 4u);
    if (e.kind == fault::FaultKind::kOsdCrash) crashes++;
    if (e.kind == fault::FaultKind::kOsdRestart) restarts++;
    if (e.kind == fault::FaultKind::kTornWrite) torn++;
  }
  // Every generated crash — explicit or via a torn write (which kills the
  // daemon mid-persist) — is paired with a restart, so a randomized soak
  // always ends with the whole cluster back up.
  EXPECT_EQ(crashes + torn, restarts);
}

TEST(FaultPlan, DescribeNamesEveryKind) {
  fault::FaultPlan plan;
  plan.crash_restart(1, 0, 1);
  plan.ssd_slow(1, 0, 2.0, 1);
  plan.link_drop(1, 0, 1, 0.1, 1);
  plan.link_delay(1, 0, 1, 100, 1);
  plan.link_partition(1, 0, 1, 1);
  plan.journal_stall(1, 0, 1);
  plan.bit_flip_data(1, 0);
  plan.torn_write(1, 0);
  const std::string text = plan.describe();
  for (auto kind : {fault::FaultKind::kOsdCrash, fault::FaultKind::kOsdRestart,
                    fault::FaultKind::kSsdSlow, fault::FaultKind::kLinkDrop,
                    fault::FaultKind::kLinkDelay, fault::FaultKind::kLinkPartition,
                    fault::FaultKind::kJournalStall, fault::FaultKind::kBitFlip,
                    fault::FaultKind::kTornWrite}) {
    EXPECT_NE(text.find(fault::kind_name(kind)), std::string::npos)
        << "describe() is missing " << fault::kind_name(kind);
  }
  // The two bit-flip flavours describe distinctly (the media matters).
  fault::FaultPlan data_flip, journal_flip;
  data_flip.bit_flip_data(1, 0);
  journal_flip.bit_flip_journal(1, 0);
  EXPECT_NE(data_flip.describe(), journal_flip.describe());
  EXPECT_NE(journal_flip.describe().find("media=journal"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Injector + recovery machinery against a small live cluster.

core::ClusterConfig small_cluster(std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 32;
  cfg.replication = 2;
  cfg.min_size = 1;
  cfg.sustained = false;
  cfg.image_size = 512 * kMiB;
  cfg.seed = seed;
  return cfg;
}

struct SoakResult {
  std::uint64_t begun = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t pending = 0;
  std::uint64_t below_min = 0;
  std::uint64_t degraded = 0;
  std::uint64_t rep_recoveries = 0;  // retry rounds + abandoned peers
  std::uint64_t events = 0;
};

/// Drive the VMs directly (as bench/chaos.cc does) so the stats sink
/// outlives the post-deadline drain, then sweep up the recovery counters.
SoakResult drive(core::ClusterSim& cluster, Time runtime) {
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 50 * kMillisecond;
  spec.runtime = runtime;
  client::RunStats stats;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end);
  cluster.simulation().run();  // drain timeouts, retries, backfills

  SoakResult r;
  r.events = cluster.simulation().executed_events();
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    auto& vm = cluster.vm(v);
    r.begun += vm.ops_begun();
    r.resolved += vm.ops_resolved();
    r.failed += vm.ops_failed();
    r.retries += vm.op_retries();
    r.pending += vm.pending_size();
  }
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    auto& c = cluster.osd(o).counters();
    r.below_min += c.get("osd.acks_below_min_size");
    r.degraded += c.get("osd.acks_degraded");
    r.rep_recoveries += c.get("osd.rep_retry_rounds") + c.get("osd.rep_peers_abandoned");
  }
  return r;
}

TEST(FaultInjector, EmptyPlanPerturbsNothing) {
  core::ClusterSim bare(small_cluster(42));
  const SoakResult a = drive(bare, 200 * kMillisecond);

  core::ClusterSim armed(small_cluster(42));
  fault::FaultInjector& inj = armed.install_faults(fault::FaultPlan{});
  const SoakResult b = drive(armed, 200 * kMillisecond);

  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.begun, b.begun);
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_TRUE(inj.counters().all().empty());
}

TEST(FaultInjector, CrashMarksDownRestartHealsAndBackfills) {
  core::ClusterSim cluster(small_cluster(42));
  fault::FaultPlan plan;
  plan.crash_restart(100 * kMillisecond, 1, 80 * kMillisecond);
  fault::FaultInjector& inj = cluster.install_faults(plan);

  const std::uint64_t epoch0 = cluster.map().epoch();
  cluster.simulation().run_until(120 * kMillisecond);
  EXPECT_FALSE(cluster.map().crush().osds()[1].up);
  EXPECT_GT(cluster.map().epoch(), epoch0);

  cluster.simulation().run();
  EXPECT_TRUE(cluster.map().crush().osds()[1].up);
  EXPECT_EQ(inj.counters().get("fault.osd_crash"), 1u);
  EXPECT_EQ(inj.counters().get("fault.osd_restart"), 1u);
  // The returning OSD missed the epoch-bump window; it is re-primed with
  // the PGs it re-joins.
  EXPECT_GT(inj.counters().get("fault.backfills"), 0u);
}

TEST(FaultInjector, CrashUnderLoadDegradesButNeverAcksBelowMinSize) {
  core::ClusterConfig cfg = small_cluster(42);
  cfg.osd.rep_timeout = 20 * kMillisecond;  // replication watchdog on
  cfg.osd.rep_retries = 1;
  cfg.client_op_timeout = 100 * kMillisecond;
  core::ClusterSim cluster(cfg);

  fault::FaultPlan plan;
  plan.crash(120 * kMillisecond, 2);  // permanent: no restart
  cluster.install_faults(plan);

  const SoakResult r = drive(cluster, 300 * kMillisecond);
  EXPECT_GT(r.begun, 0u);
  EXPECT_EQ(r.begun, r.resolved);  // exactly-once: every op acked or failed
  EXPECT_EQ(r.pending, 0u);
  EXPECT_EQ(r.below_min, 0u);  // durability floor held throughout
  // Ops replicating toward the dead OSD when it died ran the watchdog:
  // retry rounds, then abandonment, then a degraded (min_size) ack.
  EXPECT_GT(r.rep_recoveries, 0u);
  EXPECT_GT(r.degraded, 0u);
}

TEST(FaultInjector, LinkPartitionHealsThroughWatchdog) {
  core::ClusterConfig cfg = small_cluster(42);
  cfg.osd.rep_timeout = 20 * kMillisecond;
  cfg.osd.rep_retries = 1;
  cfg.client_op_timeout = 100 * kMillisecond;
  core::ClusterSim cluster(cfg);

  fault::FaultPlan plan;
  plan.link_partition(100 * kMillisecond, 0, fault::kAllPeers, 60 * kMillisecond);
  cluster.install_faults(plan);

  const SoakResult r = drive(cluster, 300 * kMillisecond);
  EXPECT_EQ(r.begun, r.resolved);
  EXPECT_EQ(r.pending, 0u);
  EXPECT_EQ(r.below_min, 0u);
  EXPECT_GT(r.rep_recoveries, 0u);  // rep acks vanished into the partition
}

TEST(ClientRetry, TimeoutResubmitsUntilResolved) {
  core::ClusterConfig cfg = small_cluster(42);
  cfg.osd.rep_timeout = 20 * kMillisecond;
  cfg.osd.rep_retries = 1;
  cfg.client_op_timeout = 50 * kMillisecond;  // short fuse: retries visible
  cfg.client_op_retries = 4;
  core::ClusterSim cluster(cfg);

  // Crash the OSD and bring it back much later than the client timeout, so
  // in-flight ops at the crash instant must resubmit to the re-targeted
  // primary instead of waiting out the outage.
  fault::FaultPlan plan;
  plan.crash_restart(120 * kMillisecond, 1, 150 * kMillisecond);
  cluster.install_faults(plan);

  const SoakResult r = drive(cluster, 300 * kMillisecond);
  EXPECT_EQ(r.begun, r.resolved);
  EXPECT_EQ(r.pending, 0u);
  EXPECT_EQ(r.below_min, 0u);
  EXPECT_GT(r.retries, 0u);  // some ops needed a second attempt
}

TEST(OrderedAcks, FailedWriteReleasesLaterHeldAck) {
  core::ClusterConfig cfg = small_cluster(42);
  cfg.profile.ordered_acks = true;
  cfg.min_size = 0;  // = replication: a write whose replica stays silent fails
  cfg.osd.rep_timeout = 20 * kMillisecond;
  cfg.osd.rep_retries = 1;
  core::ClusterSim cluster(cfg);
  client::VmClient& vm = cluster.vm(0);
  const cluster::ClusterMap& map = cluster.map();

  // Two objects with one primary and different replicas: cutting the link
  // to the first one's replica fails its write, while the second commits.
  const auto pg_at = [&](std::uint64_t off) {
    return map.pg_of(vm.image().map(off).object_name);
  };
  const std::uint64_t a_off = 0;
  const std::uint32_t primary = map.primary(pg_at(a_off));
  const std::uint32_t lost_replica = map.acting(pg_at(a_off))[1];
  std::uint64_t b_off = 0;
  for (std::uint64_t off = 4 * kMiB; off < cfg.image_size && b_off == 0; off += 4 * kMiB) {
    const std::uint32_t pg = pg_at(off);
    if (map.primary(pg) == primary && map.acting(pg)[1] != lost_replica) b_off = off;
  }
  ASSERT_NE(b_off, 0u) << "no object shares the primary with a different replica";

  fault::FaultPlan plan;
  plan.link_partition(0, primary, lost_replica, 10 * kSecond);
  cluster.install_faults(plan);

  // The first write is the ledger's head while the second commits, so the
  // second's ack is held until the first resolves, here as a failure.
  std::optional<bool> a_ok;
  std::optional<bool> b_ok;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    const bool ok = co_await vm.write_once(a_off, Payload::pattern(4096, 1));
    a_ok = ok;
  });
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    const bool ok = co_await vm.write_once(b_off, Payload::pattern(4096, 2));
    b_ok = ok;
  });
  cluster.simulation().run_until(kSecond);

  ASSERT_TRUE(a_ok.has_value());
  EXPECT_FALSE(*a_ok);
  EXPECT_EQ(cluster.osd(primary).counters().get("osd.write_failures"), 1u);
  ASSERT_TRUE(b_ok.has_value()) << "the later write's ack stayed held behind the failed write";
  EXPECT_TRUE(*b_ok);
}

TEST(FaultInjector, SsdSlowAndJournalStallAreTransparentToClients) {
  core::ClusterConfig cfg = small_cluster(42);
  cfg.client_op_timeout = 200 * kMillisecond;
  core::ClusterSim cluster(cfg);

  fault::FaultPlan plan;
  plan.ssd_slow(80 * kMillisecond, 0, 6.0, 100 * kMillisecond);
  plan.journal_stall(120 * kMillisecond, 3, 30 * kMillisecond);
  fault::FaultInjector& inj = cluster.install_faults(plan);

  const SoakResult r = drive(cluster, 300 * kMillisecond);
  EXPECT_EQ(r.begun, r.resolved);
  EXPECT_EQ(r.failed, 0u);  // slowness is latency, never loss
  EXPECT_EQ(r.pending, 0u);
  EXPECT_EQ(inj.counters().get("fault.ssd_slow"), 1u);
  EXPECT_EQ(inj.counters().get("fault.journal_stall"), 1u);
  EXPECT_EQ(inj.counters().get("fault.cleared"), 1u);  // the ssd_slow window
}

// ---------------------------------------------------------------------------
// Corruption faults end to end: torn-write replay and bit-flip scrub repair.

TEST(FaultInjector, TornWriteReplaysDurableRecordsOnRestart) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    SCOPED_TRACE(store::backend_name(backend));
    core::ClusterConfig cfg = small_cluster(42);
    cfg.store_backend = backend;
    cfg.osd.rep_timeout = 20 * kMillisecond;
    cfg.osd.rep_retries = 1;
    cfg.client_op_timeout = 100 * kMillisecond;
    core::ClusterSim cluster(cfg);

    // Stall the store's ring writer so a backlog of batches queues up, then
    // tear the queue mid-stall (prefix persists, daemon dies) and restart
    // later.
    fault::FaultPlan plan;
    plan.journal_stall(100 * kMillisecond, 1, 40 * kMillisecond);
    plan.torn_write_restart(120 * kMillisecond, 1, 80 * kMillisecond);
    fault::FaultInjector& inj = cluster.install_faults(plan);

    const SoakResult r = drive(cluster, 400 * kMillisecond);
    EXPECT_GT(r.begun, 0u);
    EXPECT_EQ(r.begun, r.resolved);  // exactly-once: every op acked or failed
    EXPECT_EQ(r.pending, 0u);
    EXPECT_EQ(r.below_min, 0u);

    // The tear found queued batches; the prefix survived as records.
    EXPECT_EQ(inj.counters().get("fault.torn_write"), 1u);
    EXPECT_EQ(inj.counters().get("fault.osd_restart"), 1u);
    EXPECT_GT(inj.counters().get("fault.torn_entries"), 0u);

    // On restart the OSD replayed the surviving prefix from its own ring —
    // locally durable writes came back without peer traffic — and counted
    // exactly one torn tail where replay stopped.
    auto& c = cluster.osd(1).counters();
    EXPECT_GT(c.get("osd.journal.records_replayed"), 0u);
    EXPECT_EQ(c.get("osd.journal.torn_tails"), 1u);
    EXPECT_EQ(c.get("osd.journal.crc_failures"), 0u);
  }
}

TEST(FaultInjector, BitFlipsAreFoundAndRepairedByDeepScrub) {
  core::ClusterSim cluster(small_cluster(42));

  // Flip bytes in data extents on two OSDs well after the workload window:
  // the events fire during the post-deadline drain, when every op has
  // resolved, so nothing overwrites the corruption before the scrub sees it.
  fault::FaultPlan plan;
  plan.bit_flip_data(1 * kSecond, 1);
  plan.bit_flip_data(1 * kSecond, 2);
  fault::FaultInjector& inj = cluster.install_faults(plan);

  const SoakResult r = drive(cluster, 150 * kMillisecond);
  EXPECT_GT(r.begun, 0u);
  EXPECT_EQ(r.begun, r.resolved);
  EXPECT_EQ(inj.counters().get("fault.bit_flip"), 2u);
  EXPECT_EQ(inj.counters().get("fault.bit_flip_noop"), 0u);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    auto detect = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_GT(detect.inconsistent, 0u);

    auto repair = co_await cluster.deep_scrub(/*repair=*/true);
    EXPECT_GE(repair.repaired, repair.inconsistent);

    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_EQ(verify.inconsistent, 0u);
    EXPECT_EQ(verify.missing, 0u);
    done = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(done);

  std::uint64_t repaired = 0;
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    repaired += cluster.osd(o).counters().get("osd.scrub_objects_repaired");
  }
  EXPECT_GT(repaired, 0u);
}

}  // namespace
}  // namespace afc
