// OSD + cluster integration tests: end-to-end correctness through the full
// replicated pipeline, per-PG ordering, the community/AFCeph mechanism
// differences, throttle and journal behaviour, ordered acks.

#include <gtest/gtest.h>

#include "core/cluster_sim.h"

namespace afc {
namespace {

core::ClusterConfig tiny_cluster(core::Profile profile, bool sustained = false) {
  core::ClusterConfig cfg;
  cfg.profile = std::move(profile);
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 64;
  cfg.image_size = 256 * kMiB;
  cfg.sustained = sustained;
  return cfg;
}

// Run a client-side coroutine against a cluster until it finishes.
template <class Fn>
void drive(core::ClusterSim& cluster, Fn fn) {
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    co_await fn();
    done = true;
  });
  cluster.simulation().run_until(cluster.simulation().now() + 60 * kSecond);
  ASSERT_TRUE(done) << "cluster coroutine did not finish";
}

/// One pipeline case: the profile and the store backend under the OSDs.
struct PipelineCase {
  bool afceph = false;
  store::Backend backend = store::Backend::kFile;
};

// The listed test name carries the printed parameter: FileStore cases print
// as the bare profile flag they were first registered with.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << (c.afceph ? "true" : "false");
  if (c.backend != store::Backend::kFile) *os << " on " << store::backend_name(c.backend);
}

class OsdPipeline : public ::testing::TestWithParam<PipelineCase> {
 protected:
  core::ClusterConfig config() const {
    auto cfg = tiny_cluster(GetParam().afceph ? core::Profile::afceph()
                                              : core::Profile::community());
    cfg.store_backend = GetParam().backend;
    return cfg;
  }
};

TEST_P(OsdPipeline, ReadYourWrites) {
  core::ClusterSim cluster(config());
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    auto data = Payload::pattern(4096, 0x1234);
    EXPECT_TRUE(co_await vm.write_once(8 * kMiB, data));
    auto r = co_await vm.read_once(8 * kMiB, 4096);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(data));
  });
}

TEST_P(OsdPipeline, OverwriteVisible) {
  core::ClusterSim cluster(config());
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    co_await vm.write_once(0, Payload::pattern(4096, 1));
    co_await vm.write_once(0, Payload::pattern(4096, 2));
    auto r = co_await vm.read_once(0, 4096);
    EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(Payload::pattern(4096, 2)));
  });
}

TEST_P(OsdPipeline, DataReplicatedToAllActingOsds) {
  core::ClusterSim cluster(config());
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    co_await vm.write_once(4 * kMiB, Payload::pattern(4096, 9));
    // Let replica applies drain.
    co_await sim::delay(cluster.simulation(), 2 * kSecond);
  });
  const auto mapping = cluster.vm(0).image().map(4 * kMiB);
  const auto pg = cluster.map().pg_of(mapping.object_name);
  const auto acting = cluster.map().acting(pg);
  ASSERT_EQ(acting.size(), 2u);
  for (auto osd_id : acting) {
    EXPECT_TRUE(cluster.osd(osd_id).store().object_in_memory(
        fs::ObjectId{pg, mapping.object_name}))
        << "osd " << osd_id;
  }
  // Non-acting OSDs must NOT hold the object.
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    if (std::find(acting.begin(), acting.end(), std::uint32_t(i)) != acting.end()) continue;
    EXPECT_FALSE(cluster.osd(i).store().object_in_memory(fs::ObjectId{pg, mapping.object_name}));
  }
}

TEST_P(OsdPipeline, ConcurrentWritesToSameObjectKeepLastWriterVisible) {
  core::ClusterSim cluster(config());
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    // Issue 32 sequential overwrites of the same 4K block back-to-back.
    for (int i = 0; i < 32; i++) {
      co_await vm.write_once(16 * kMiB, Payload::pattern(4096, 100 + std::uint64_t(i)));
    }
    auto r = co_await vm.read_once(16 * kMiB, 4096);
    EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(Payload::pattern(4096, 131)));
  });
}

TEST_P(OsdPipeline, ManyObjectsSurviveVerification) {
  core::ClusterSim cluster(config());
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    for (int i = 0; i < 64; i++) {
      co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(8192, 500 + std::uint64_t(i)));
    }
    for (int i = 0; i < 64; i++) {
      auto r = co_await vm.read_once(std::uint64_t(i) * 4 * kMiB, 8192);
      EXPECT_TRUE(r.ok);
      EXPECT_TRUE(Payload::bytes(std::move(r.data))
                      .content_equals(Payload::pattern(8192, 500 + std::uint64_t(i))))
          << "object " << i;
    }
  });
}

TEST_P(OsdPipeline, PgLogWrittenAndTrimmed) {
  auto cfg = config();
  cfg.osd.pg_log_keep = 32;
  cfg.osd.pg_log_trim_every = 16;
  core::ClusterSim cluster(cfg);
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    // Hammer one object so one PG accumulates log entries past the trim
    // horizon.
    for (int i = 0; i < 200; i++) {
      co_await vm.write_once(0, Payload::pattern(4096, std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);
    const auto mapping = cluster.vm(0).image().map(0);
    const auto pg = cluster.map().pg_of(mapping.object_name);
    auto& primary = cluster.osd(cluster.map().primary(pg));
    auto* pgp = primary.find_pg(pg);
    EXPECT_NE(pgp, nullptr);
    if (pgp == nullptr) co_return;
    EXPECT_GE(pgp->version(), 200u);
    EXPECT_GT(pgp->log_floor, 1u);  // trim advanced
    // The trimmed prefix is gone from omap, the recent suffix is present.
    auto keys = co_await primary.omap_db().range_keys(pgp->log_key(0), pgp->log_key(~0ull >> 20),
                                                      100000);
    EXPECT_LE(keys.size(), std::uint64_t(pgp->version() - pgp->log_floor) + 8);
    EXPECT_GE(keys.size(), 16u);
  });
}

std::string profile_name(const ::testing::TestParamInfo<PipelineCase>& info) {
  return info.param.afceph ? "afceph" : "community";
}

INSTANTIATE_TEST_SUITE_P(CommunityAndAfceph, OsdPipeline,
                         ::testing::Values(PipelineCase{false, store::Backend::kFile},
                                           PipelineCase{true, store::Backend::kFile}),
                         profile_name);
INSTANTIATE_TEST_SUITE_P(CommunityAndAfcephFlash, OsdPipeline,
                         ::testing::Values(PipelineCase{false, store::Backend::kFlash},
                                           PipelineCase{true, store::Backend::kFlash}),
                         profile_name);

// ---------------------------------------------------------------------------
// Mechanism-specific behaviour
// ---------------------------------------------------------------------------

TEST(OsdMechanism, AfcephWritePathDoesNoMetadataReads) {
  for (bool light : {false, true}) {
    core::ClusterSim cluster(
        tiny_cluster(light ? core::Profile::afceph() : core::Profile::community(),
                     /*sustained=*/true));
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 50; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(4096, 1));
      }
    });
    std::uint64_t meta_reads = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      meta_reads += cluster.osd(i).store().metadata_device_reads();
    }
    if (light) {
      EXPECT_EQ(meta_reads, 0u) << "write-through cache must avoid RMW reads";
    } else {
      EXPECT_GT(meta_reads, 20u) << "community RMW reads missing";
    }
  }
}

TEST(OsdMechanism, LightTransactionsCutSyscalls) {
  std::uint64_t syscalls[2] = {0, 0};
  for (int light = 0; light < 2; light++) {
    core::ClusterSim cluster(
        tiny_cluster(light ? core::Profile::afceph() : core::Profile::community()));
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 50; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(4096, 1));
      }
      co_await sim::delay(cluster.simulation(), 2 * kSecond);  // applies drain
    });
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      syscalls[light] += cluster.osd(i).store().syscalls();
    }
  }
  EXPECT_GT(syscalls[0], syscalls[1] * 2);
}

TEST(OsdMechanism, PendingQueueDefersInsteadOfBlocking) {
  // Target one PG with deep concurrency: AFCeph parks ops (pending_defers >
  // 0), community blocks workers on the PG lock (contended acquisitions).
  for (bool afceph : {false, true}) {
    core::ClusterSim cluster(
        tiny_cluster(afceph ? core::Profile::afceph() : core::Profile::community()));
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      sim::WaitGroup wg(cluster.simulation());
      for (int i = 0; i < 64; i++) {
        wg.add(1);
        sim::spawn_fn([&vm, &wg, i]() -> sim::CoTask<void> {
          co_await vm.write_once(0, Payload::pattern(4096, std::uint64_t(i)));
          wg.done();
        });
      }
      co_await wg.wait();
    });
    std::uint64_t defers = 0, contended = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      defers += cluster.osd(i).pending_defers();
      contended += cluster.osd(i).pg_lock_contended();
    }
    if (afceph) {
      EXPECT_GT(defers, 0u);
    } else {
      EXPECT_EQ(defers, 0u);
      EXPECT_GT(contended, 0u);
    }
  }
}

TEST(OsdMechanism, OrderedAcksDeliverInOrderUnderBatching) {
  auto profile = core::Profile::afceph();
  profile.ordered_acks = true;
  core::ClusterSim cluster(tiny_cluster(profile));
  // Issue many concurrent writes from one client across different PGs and
  // record ack arrival order by op id.
  std::vector<std::uint64_t> acked;
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    sim::WaitGroup wg(cluster.simulation());
    for (int i = 0; i < 48; i++) {
      wg.add(1);
      sim::spawn_fn([&, i]() -> sim::CoTask<void> {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(4096, 1));
        acked.push_back(std::uint64_t(i));
        wg.done();
      });
    }
    co_await wg.wait();
  });
  ASSERT_EQ(acked.size(), 48u);
  // Ordered acks apply per OSD: for ops hitting the same primary, ack order
  // must match issue order.
  std::map<std::uint32_t, std::vector<std::uint64_t>> per_primary;
  for (auto idx : acked) {
    const auto m = cluster.vm(0).image().map(idx * 4 * kMiB);
    per_primary[cluster.map().primary(cluster.map().pg_of(m.object_name))].push_back(idx);
  }
  for (const auto& [osd, order] : per_primary) {
    for (std::size_t i = 1; i < order.size(); i++) {
      EXPECT_LT(order[i - 1], order[i]) << "unordered ack from osd " << osd;
    }
  }
}

TEST(OsdMechanism, CommunityThrottlesAreHddSized) {
  core::ClusterSim community(tiny_cluster(core::Profile::community()));
  core::ClusterSim tuned(tiny_cluster(core::Profile::afceph()));
  EXPECT_EQ(community.osd(0).throttles().filestore_ops.capacity(), 50u);
  EXPECT_EQ(community.osd(0).throttles().messages.capacity(), 100u);
  EXPECT_EQ(tuned.osd(0).throttles().filestore_ops.capacity(), 2048u);
  EXPECT_EQ(tuned.osd(0).throttles().messages.capacity(), 5000u);
}

TEST(OsdMechanism, JournalEntriesSmallerWithLightTransactions) {
  std::uint64_t journal_bytes[2] = {0, 0};
  for (int light = 0; light < 2; light++) {
    core::ClusterSim cluster(
        tiny_cluster(light ? core::Profile::afceph() : core::Profile::community()));
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 40; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(4096, 1));
      }
    });
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      journal_bytes[light] += cluster.osd(i).journal().bytes_written();
    }
  }
  // The alloc-hint op and redundancy disappear; entries shrink.
  EXPECT_LT(journal_bytes[1], journal_bytes[0]);
}

TEST(OsdMechanism, EachStoreOwnsOneWriteAheadRing) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(0, Payload::pattern(4096, 1)));
    });
    std::uint64_t entries = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      osd::Osd& o = cluster.osd(i);
      ASSERT_NE(o.store().wal(), nullptr) << store::backend_name(backend);
      EXPECT_EQ(&o.journal(), o.store().wal()) << store::backend_name(backend);
      entries += o.journal().entries_written();
    }
    // Primary and replica each committed the write through their ring.
    EXPECT_EQ(entries, 2u) << store::backend_name(backend);
  }
}

TEST(OsdMechanism, ReadsDoNotTouchTheJournal) {
  core::ClusterSim cluster(tiny_cluster(core::Profile::afceph()));
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    co_await vm.write_once(0, Payload::pattern(4096, 1));
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      before += cluster.osd(i).journal().entries_written();
    }
    for (int i = 0; i < 20; i++) (void)co_await vm.read_once(0, 4096);
    std::uint64_t after = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      after += cluster.osd(i).journal().entries_written();
    }
    EXPECT_EQ(before, after);
  });
}

TEST(OsdMechanism, NonexistentObjectReadFails) {
  core::ClusterSim cluster(tiny_cluster(core::Profile::afceph()));
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto r = co_await cluster.vm(0).read_once(100 * kMiB, 4096);
    EXPECT_FALSE(r.ok);
  });
}

TEST(OsdMechanism, SustainedClusterReadsPreexistingData) {
  core::ClusterSim cluster(tiny_cluster(core::Profile::afceph(), /*sustained=*/true));
  drive(cluster, [&]() -> sim::CoTask<void> {
    // 80%-full cluster: objects exist before any write.
    auto r = co_await cluster.vm(0).read_once(32 * kMiB, 4096);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.data.size(), 4096u);
  });
}

// decommission_osd and add_node run under both membership modes and must
// move the same objects in both. Under detected membership the change also
// reaches every agent and client as a monitor delta once the rebalance is
// done; the epoch checks below fail if it does not.

core::ClusterConfig recovery_cluster(mon::MembershipMode mode) {
  auto cfg = tiny_cluster(core::Profile::afceph());
  cfg.membership.mode = mode;
  return cfg;
}

/// Under detected membership, every OSD has an agent, every live agent and
/// every VM has learned the map's current epoch, and no agent re-ran the
/// rebalance's recovery when the delta reached it.
void expect_epoch_learned(core::ClusterSim& cluster) {
  const std::uint64_t epoch = cluster.map().epoch();
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    const osd::MembershipAgent* agent = cluster.osd(i).membership();
    ASSERT_NE(agent, nullptr) << "osd." << i;
    if (cluster.osd(i).messenger().blackholed()) continue;  // a dead daemon learns nothing
    EXPECT_EQ(agent->known_epoch(), epoch) << "osd." << i;
    EXPECT_EQ(cluster.osd(i).counters().get("osd.map_backfills"), 0u) << "osd." << i;
  }
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    EXPECT_EQ(cluster.vm(v).known_epoch(), epoch) << "vm." << v;
  }
}

/// Decommission OSD 0 of a written cluster; returns the objects migrated.
std::uint64_t decommission_case(mon::MembershipMode mode) {
  core::ClusterSim cluster(recovery_cluster(mode));
  constexpr int kObjects = 48;
  std::uint64_t migrated = 0;
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    for (int i = 0; i < kObjects; i++) {
      co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                             Payload::pattern(4096, 900 + std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);  // applies drain

    migrated = co_await cluster.decommission_osd(0);
    EXPECT_GT(migrated, 0u);
    if (mode == mon::MembershipMode::kDetected) {
      co_await sim::delay(cluster.simulation(), 100 * kMillisecond);  // the delta lands
      expect_epoch_learned(cluster);
    }

    // Placement no longer references OSD 0.
    for (std::uint32_t pg = 0; pg < cluster.config().pg_num; pg++) {
      for (auto osd : cluster.map().acting(pg)) EXPECT_NE(osd, 0u);
    }
    // All data still verifies through the new mapping.
    for (int i = 0; i < kObjects; i++) {
      auto r = co_await vm.read_once(std::uint64_t(i) * 4 * kMiB, 4096);
      EXPECT_TRUE(r.ok) << i;
      EXPECT_TRUE(Payload::bytes(std::move(r.data))
                      .content_equals(Payload::pattern(4096, 900 + std::uint64_t(i))))
          << i;
    }
    // Replication is fully restored: every written object exists on both
    // current acting members.
    for (int i = 0; i < kObjects; i++) {
      const auto m = cluster.vm(0).image().map(std::uint64_t(i) * 4 * kMiB);
      const auto pg = cluster.map().pg_of(m.object_name);
      for (auto osd : cluster.map().acting(pg)) {
        EXPECT_TRUE(
            cluster.osd(osd).store().object_in_memory(fs::ObjectId{pg, m.object_name}))
            << "object " << i << " missing on osd " << osd;
      }
    }
  });
  return migrated;
}

TEST(OsdRecovery, DecommissionRereplicatesAndDataSurvives) {
  decommission_case(mon::MembershipMode::kOracle);
}

TEST(OsdRecovery, DecommissionUnderDetectedMembership) {
  EXPECT_EQ(decommission_case(mon::MembershipMode::kDetected),
            decommission_case(mon::MembershipMode::kOracle));
}

TEST(OsdRecovery, BackfillSkipsACopyThatFailsItsCrc) {
  core::ClusterSim cluster(tiny_cluster(core::Profile::afceph()));
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    for (int i = 0; i < 32; i++) {
      co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                             Payload::pattern(4096, 70 + std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);

    // Rot the backfill source's copy of object 0, then take its peer away:
    // the replacement member must not receive the rotten bytes dressed in
    // fresh checksums.
    const auto m = vm.image().map(0);
    const auto pg = cluster.map().pg_of(m.object_name);
    const fs::ObjectId oid{pg, m.object_name};
    const std::vector<std::uint32_t> before = cluster.map().acting(pg);
    const std::uint64_t written = cluster.osd(before[0]).store().object_fingerprint(oid);
    EXPECT_TRUE(cluster.osd(before[0]).store().corrupt_object(oid));
    co_await cluster.decommission_osd(before[1]);

    for (auto member : cluster.map().acting(pg)) {
      const auto& store = cluster.osd(member).store();
      if (!store.object_in_memory(oid) || !store.verify_object(oid)) continue;
      EXPECT_EQ(store.object_fingerprint(oid), written) << "laundered copy on osd " << member;
    }
  });
}

/// Add a node to a written cluster; returns the objects migrated. Under
/// detected membership a crash of an added OSD must then be detected like
/// any other.
std::uint64_t add_node_case(mon::MembershipMode mode) {
  core::ClusterSim cluster(recovery_cluster(mode));
  std::uint64_t migrated = 0;
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    for (int i = 0; i < 32; i++) {
      co_await vm.write_once(std::uint64_t(i) * 4 * kMiB, Payload::pattern(4096, 70 + std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);

    const std::size_t before = cluster.osd_count();
    migrated = co_await cluster.add_node();
    EXPECT_EQ(cluster.osd_count(), before + cluster.config().osds_per_node);

    // The new OSDs own a reasonable share of PGs.
    std::size_t on_new = 0;
    for (std::uint32_t pg = 0; pg < cluster.config().pg_num; pg++) {
      for (auto osd : cluster.map().acting(pg)) {
        if (osd >= before) on_new++;
      }
    }
    EXPECT_GT(on_new, cluster.config().pg_num / 8);

    // Everything still verifies after the rebalance.
    for (int i = 0; i < 32; i++) {
      auto r = co_await vm.read_once(std::uint64_t(i) * 4 * kMiB, 4096);
      EXPECT_TRUE(r.ok) << i;
      EXPECT_TRUE(Payload::bytes(std::move(r.data))
                      .content_equals(Payload::pattern(4096, 70 + std::uint64_t(i))))
          << i;
    }
    if (mode != mon::MembershipMode::kDetected) co_return;

    // The added OSDs joined the membership plane: they have agents, they
    // heartbeat, and everyone learned the expansion's epoch.
    co_await sim::delay(cluster.simulation(), 200 * kMillisecond);
    expect_epoch_learned(cluster);
    for (std::size_t n = before; n < cluster.osd_count(); n++) {
      EXPECT_GT(cluster.osd(n).counters().get("osd.hb_sent"), 0u) << "osd." << n;
    }

    // A crash of an added OSD is detected within hb_grace + 2*hb_interval.
    const auto victim = std::uint32_t(before);
    const Time crash_at = cluster.simulation().now() + 50 * kMillisecond;
    cluster.install_faults(fault::FaultPlan{}.crash(crash_at, victim));
    co_await sim::delay(cluster.simulation(), 500 * kMillisecond);
    const mon::MembershipConfig& m = cluster.config().membership;
    const auto& downs = cluster.monitor()->markdowns();
    EXPECT_EQ(downs.size(), 1u);
    if (downs.empty()) co_return;
    EXPECT_EQ(downs[0].osd, victim);
    EXPECT_GT(downs[0].at, crash_at);
    EXPECT_LE(downs[0].at, crash_at + m.hb_grace + 2 * m.hb_interval);
  });
  return migrated;
}

TEST(OsdRecovery, AddNodeRebalancesPgs) { add_node_case(mon::MembershipMode::kOracle); }

TEST(OsdRecovery, AddNodeUnderDetectedMembership) {
  EXPECT_EQ(add_node_case(mon::MembershipMode::kDetected),
            add_node_case(mon::MembershipMode::kOracle));
}

// Every OSD pair has one connection pair, added nodes included: the
// OSD messengers hold two directions per pair, and each OSD receives from
// its peers and the VMs once each.
TEST(OsdRecovery, AddNodeConnectsEachNewPairOnce) {
  core::ClusterSim cluster(recovery_cluster(mon::MembershipMode::kOracle));
  drive(cluster, [&]() -> sim::CoTask<void> { co_await cluster.add_node(); });
  const std::size_t n = cluster.osd_count();
  ASSERT_EQ(n, 6u);
  std::size_t directions = 0;
  for (std::size_t i = 0; i < n; i++) directions += cluster.osd(i).messenger().connections().size();
  EXPECT_EQ(directions, n * (n - 1));
  for (std::size_t i = 0; i < n; i++) {
    EXPECT_EQ(cluster.osd(i).messenger().rx_connections(), (n - 1) + cluster.vm_count())
        << "osd." << i;
  }
}

// A plan installed before add_node reaches the added OSDs: a crash of one
// blackholes it and runs the crash path (the oracle marks it down), and a
// partition between two of them finds the connection the first initiated.
TEST(OsdRecovery, FaultPlanReachesOsdsAddedLater) {
  core::ClusterSim cluster(recovery_cluster(mon::MembershipMode::kOracle));
  const std::uint32_t victim = std::uint32_t(cluster.osd_count());
  const std::uint32_t peer = victim + 1;
  const Time at = cluster.simulation().now() + 1 * kSecond;
  auto& injector = cluster.install_faults(
      fault::FaultPlan{}.crash(at, victim).link_partition(at, peer, victim, 10 * kSecond));
  std::size_t faulted = 0;
  drive(cluster, [&]() -> sim::CoTask<void> {
    co_await cluster.add_node();
    EXPECT_LT(cluster.simulation().now(), at);
    co_await sim::delay(cluster.simulation(), at + 100 * kMillisecond - cluster.simulation().now());
    for (const auto& c : cluster.osd(victim).messenger().connections()) {
      if (&c->remote() == &cluster.osd(peer).messenger() && c->fault().any()) faulted++;
    }
  });
  ASSERT_EQ(cluster.osd_count(), std::size_t(peer) + 1);
  EXPECT_EQ(injector.counters().get("fault.osd_crash"), 1u);
  EXPECT_TRUE(cluster.osd(victim).messenger().blackholed());
  EXPECT_FALSE(cluster.map().crush().osds()[victim].up);
  EXPECT_EQ(injector.counters().get("fault.link_partition"), 1u);
  EXPECT_EQ(faulted, 1u);  // the partition was still in force
}

// After a mark-out, the EC member that filled the vacated position ranks
// last in placement, so an expansion can drop it while it is still the
// PG's recovery source (the first up member of the old set). The awaited
// rebalance rebuilds its positions on the new OSD; the monitor delta that
// follows must not make the dropped member rebuild them a second time.
TEST(OsdRecovery, AddNodeAfterMarkOutRebuildsEachPositionOnce) {
  core::ClusterConfig cfg = recovery_cluster(mon::MembershipMode::kDetected);
  cfg.osd_nodes = 7;
  cfg.osds_per_node = 1;
  cfg.pg_num = 32;
  cfg.ec_pool = true;
  cfg.image_size = 512 * kMiB;
  cfg.membership.down_out_interval = 1 * kSecond;
  core::ClusterSim cluster(cfg);
  const auto rebuilds = [&cluster] {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      n += cluster.osd(i).counters().get("osd.map_rebuilds");
    }
    return n;
  };
  drive(cluster, [&]() -> sim::CoTask<void> {
    for (int i = 0; i < 32; i++) {
      co_await cluster.vm(0).write_once(std::uint64_t(i) * 4 * kMiB,
                                        Payload::pattern(16384, 70 + std::uint64_t(i)));
    }
    co_await sim::delay(cluster.simulation(), 2 * kSecond);
    cluster.install_faults(
        fault::FaultPlan{}.crash(cluster.simulation().now() + 50 * kMillisecond, 0));
    co_await sim::delay(cluster.simulation(), 3 * kSecond);  // down, out, rebuilt
    EXPECT_EQ(cluster.monitor()->markouts().size(), 1u);
    const std::uint64_t before = rebuilds();
    EXPECT_GT(before, 0u);

    const std::uint64_t migrated = co_await cluster.add_node();
    EXPECT_GT(migrated, 0u);
    co_await sim::delay(cluster.simulation(), 200 * kMillisecond);
    EXPECT_EQ(rebuilds(), before);
    expect_epoch_learned(cluster);
  });
}

TEST(OsdMechanism, StripedIoAcrossObjectBoundaries) {
  core::ClusterSim cluster(tiny_cluster(core::Profile::afceph()));
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    // 6 MiB write starting 1 MiB before an object boundary: spans objects
    // 0 and 1 (and verifies KRBD-style striping end to end).
    auto data = Payload::pattern(6 * kMiB, 0xABCD);
    EXPECT_TRUE(co_await vm.write_once(3 * kMiB, data));
    auto r = co_await vm.read_once(3 * kMiB, 6 * kMiB);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.data.size(), 6 * kMiB);
    EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(data));
    // Partial re-read across just the boundary.
    auto r2 = co_await vm.read_once(4 * kMiB - 512, 1024);
    EXPECT_TRUE(r2.ok);
    EXPECT_TRUE(Payload::bytes(std::move(r2.data))
                    .content_equals(data.slice(kMiB - 512, 1024)));
    // Both objects materialized on their (possibly different) primaries.
    const auto m0 = vm.image().map(3 * kMiB);
    const auto m1 = vm.image().map(4 * kMiB);
    EXPECT_NE(m0.object_name, m1.object_name);
  });
}

TEST(OsdMechanism, ReplicationThreeKeepsThreeCopies) {
  auto cfg = tiny_cluster(core::Profile::afceph());
  cfg.osd_nodes = 3;
  cfg.replication = 3;
  core::ClusterSim cluster(cfg);
  drive(cluster, [&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    auto data = Payload::pattern(4096, 0x333);
    EXPECT_TRUE(co_await vm.write_once(0, data));
    co_await sim::delay(cluster.simulation(), 2 * kSecond);
    const auto m = vm.image().map(0);
    const auto pg = cluster.map().pg_of(m.object_name);
    const auto& acting = cluster.map().acting(pg);
    EXPECT_EQ(acting.size(), 3u);
    for (auto osd : acting) {
      EXPECT_TRUE(cluster.osd(osd).store().object_in_memory(fs::ObjectId{pg, m.object_name}))
          << osd;
    }
    auto r = co_await vm.read_once(0, 4096);
    EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(data));
    // Scrub agrees all three copies match.
    auto report = co_await cluster.deep_scrub(false);
    EXPECT_EQ(report.inconsistent, 0u);
    EXPECT_EQ(report.missing, 0u);
  });
}

TEST(OsdMechanism, ZipfSkewConcentratesLoad) {
  // Skewed offsets concentrate writes on the hot object's primary OSD;
  // uniform offsets spread them evenly.
  auto imbalance_with_theta = [](double theta) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.vms = 2;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 8);
    spec.zipf_theta = theta;
    spec.warmup = 0;
    spec.runtime = 400 * kMillisecond;
    auto r = cluster.run(spec);
    EXPECT_GT(r.write_iops, 100.0);
    std::uint64_t max_writes = 0, total = 0;
    for (std::size_t i = 0; i < cluster.osd_count(); i++) {
      max_writes = std::max(max_writes, cluster.osd(i).client_writes());
      total += cluster.osd(i).client_writes();
    }
    return double(max_writes) * double(cluster.osd_count()) / double(total);
  };
  const double uniform = imbalance_with_theta(0.0);   // ~1.0 = balanced
  const double skewed = imbalance_with_theta(1.1);    // >> 1 = hot primary
  EXPECT_LT(uniform, 1.6);
  EXPECT_GT(skewed, uniform * 1.3);
}

TEST(OsdScrub, CleanClusterScrubsClean) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 32; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                               Payload::pattern(4096, std::uint64_t(i)));
      }
      co_await sim::delay(cluster.simulation(), 2 * kSecond);
      auto report = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_GE(report.objects_scrubbed, 32u) << store::backend_name(backend);
      EXPECT_EQ(report.inconsistent, 0u) << store::backend_name(backend);
      EXPECT_EQ(report.missing, 0u) << store::backend_name(backend);
    });
  }
}

TEST(OsdScrub, DetectsAndRepairsCorruptReplica) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 16; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                               Payload::pattern(4096, 40 + std::uint64_t(i)));
      }
      co_await sim::delay(cluster.simulation(), 2 * kSecond);

      // Inject latent corruption into one object's REPLICA (non-primary) copy.
      const auto m = vm.image().map(0);
      const auto pg = cluster.map().pg_of(m.object_name);
      const auto& acting = cluster.map().acting(pg);
      const fs::ObjectId oid{pg, m.object_name};
      EXPECT_TRUE(cluster.osd(acting[1]).store().corrupt_object(oid));

      auto detect = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(detect.inconsistent, 1u) << store::backend_name(backend);

      auto repair = co_await cluster.deep_scrub(/*repair=*/true);
      EXPECT_EQ(repair.inconsistent, 1u) << store::backend_name(backend);
      EXPECT_GE(repair.repaired, 1u) << store::backend_name(backend);

      auto verify = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(verify.inconsistent, 0u) << store::backend_name(backend);

      // The replica's bytes now match the primary's (and the client pattern).
      auto r = co_await vm.read_once(0, 4096);
      EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(Payload::pattern(4096, 40)))
          << store::backend_name(backend);
    });
  }
}

TEST(OsdScrub, DetectsMissingReplica) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      co_await vm.write_once(0, Payload::pattern(4096, 5));
      co_await sim::delay(cluster.simulation(), 2 * kSecond);
      // Corrupting a never-written object is impossible...
      EXPECT_FALSE(cluster.osd(0).store().corrupt_object(fs::ObjectId{0, "nope"}));
      // ...but scrub flags primary/replica divergence if a write only reached
      // one side. Simulate by writing directly into the primary's store.
      const auto m = vm.image().map(8 * kMiB);
      const auto pg = cluster.map().pg_of(m.object_name);
      const auto& acting = cluster.map().acting(pg);
      fs::Transaction t;
      t.write(fs::ObjectId{pg, m.object_name}, 0, Payload::pattern(4096, 77));
      bool applied = false;
      sim::spawn_fn([&cluster, &acting, &t, &applied]() -> sim::CoTask<void> {
        co_await cluster.osd(acting[0]).store().apply_transaction(t, true);
        applied = true;
      });
      co_await sim::delay(cluster.simulation(), 1 * kSecond);
      EXPECT_TRUE(applied) << store::backend_name(backend);
      auto report = co_await cluster.deep_scrub(/*repair=*/true);
      EXPECT_GE(report.missing, 1u) << store::backend_name(backend);
      EXPECT_GE(report.repaired, 1u) << store::backend_name(backend);
      auto verify = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(verify.missing, 0u) << store::backend_name(backend);
    });
  }
}

TEST(OsdScrub, RepairsADivergentCleanReplica) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      co_await vm.write_once(0, Payload::pattern(4096, 5));
      co_await sim::delay(cluster.simulation(), 2 * kSecond);
      // The replica takes a write the primary never saw: both copies pass
      // their CRCs, only the cross-copy fingerprint check can tell.
      const auto m = vm.image().map(0);
      const auto pg = cluster.map().pg_of(m.object_name);
      const auto& acting = cluster.map().acting(pg);
      const fs::ObjectId oid{pg, m.object_name};
      fs::Transaction t;
      t.write(oid, 0, Payload::pattern(4096, 77));
      co_await cluster.osd(acting[1]).store().apply_transaction(t, true);

      auto detect = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(detect.inconsistent, 1u) << store::backend_name(backend);
      auto repair = co_await cluster.deep_scrub(/*repair=*/true);
      EXPECT_EQ(repair.repaired, 1u) << store::backend_name(backend);
      auto verify = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(verify.inconsistent, 0u) << store::backend_name(backend);
      EXPECT_EQ(cluster.osd(acting[1]).store().object_fingerprint(oid),
                cluster.osd(acting[0]).store().object_fingerprint(oid))
          << store::backend_name(backend);
    });
  }
}

TEST(OsdScrub, RepairNeedsACleanCopy) {
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    auto cfg = tiny_cluster(core::Profile::afceph());
    cfg.store_backend = backend;
    core::ClusterSim cluster(cfg);
    drive(cluster, [&]() -> sim::CoTask<void> {
      auto& vm = cluster.vm(0);
      for (int i = 0; i < 16; i++) {
        co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                               Payload::pattern(4096, 40 + std::uint64_t(i)));
      }
      co_await sim::delay(cluster.simulation(), 2 * kSecond);

      // Every copy of one object rots: no member holds a clean source.
      const auto m = vm.image().map(0);
      const auto pg = cluster.map().pg_of(m.object_name);
      const fs::ObjectId oid{pg, m.object_name};
      for (auto member : cluster.map().acting(pg)) {
        EXPECT_TRUE(cluster.osd(member).store().corrupt_object(oid));
      }

      // Repair must not copy one corrupt copy over the others.
      auto first = co_await cluster.deep_scrub(/*repair=*/true);
      auto second = co_await cluster.deep_scrub(/*repair=*/true);
      EXPECT_EQ(first.repaired, 0u) << store::backend_name(backend);
      EXPECT_EQ(second.repaired, 0u) << store::backend_name(backend);
      auto verify = co_await cluster.deep_scrub(/*repair=*/false);
      EXPECT_EQ(verify.inconsistent, cluster.map().acting(pg).size())
          << store::backend_name(backend);
    });
  }
}

TEST(OsdMechanism, WorkloadRunnerProducesConsistentStats) {
  auto cfg = tiny_cluster(core::Profile::afceph());
  cfg.vms = 4;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 50 * kMillisecond;
  spec.runtime = 300 * kMillisecond;
  auto r = cluster.run(spec);
  EXPECT_GT(r.write_iops, 100.0);
  EXPECT_GT(r.write_lat_ms, 0.0);
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_GT(r.write_lat.count(), 0u);
  // Latency percentiles are ordered.
  EXPECT_LE(r.write_lat.percentile(0.5), r.write_lat.percentile(0.99));
}

TEST(OsdMechanism, VerifyModeChecksDataEndToEnd) {
  auto cfg = tiny_cluster(core::Profile::afceph());
  cfg.vms = 2;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = 0.5;
  spec.verify = true;
  spec.warmup = 0;
  spec.runtime = 400 * kMillisecond;
  auto r = cluster.run(spec);
  EXPECT_GT(r.read_lat.count(), 0u);
  EXPECT_EQ(r.verify_failures, 0u);
}

// ---------------------------------------------------------------------------
// Paper-shape regression guards (coarse thresholds; runs are deterministic)
// ---------------------------------------------------------------------------

TEST(PaperShapes, AfcephOutperformsCommunityOnRandomWrites) {
  double iops[2];
  for (int p = 0; p < 2; p++) {
    auto cfg = tiny_cluster(p ? core::Profile::afceph() : core::Profile::community(),
                            /*sustained=*/true);
    cfg.vms = 8;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 8);
    spec.warmup = 200 * kMillisecond;
    spec.runtime = 600 * kMillisecond;
    iops[p] = cluster.run(spec).write_iops;
  }
  EXPECT_GT(iops[1], iops[0] * 1.5) << "community " << iops[0] << " afceph " << iops[1];
}

TEST(PaperShapes, NagleGivesCommunityALatencyFloorAtLowDepth) {
  double lat[2];
  for (int p = 0; p < 2; p++) {
    auto cfg = tiny_cluster(p ? core::Profile::afceph() : core::Profile::community(),
                            /*sustained=*/true);
    cfg.vms = 2;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 1);
    spec.warmup = 100 * kMillisecond;
    spec.runtime = 400 * kMillisecond;
    lat[p] = cluster.run(spec).write_lat_ms;
  }
  EXPECT_GT(lat[0], 3.0) << "community low-depth latency should carry the Nagle stall";
  EXPECT_LT(lat[1], lat[0] / 2.0);
}

TEST(PaperShapes, SustainedStateHurtsCommunityMoreThanAfceph) {
  // Community pays metadata RMW reads + WBThrottle'd applies on slow flash;
  // AFCeph's light transactions dodge most of it.
  double ratio[2];
  for (int p = 0; p < 2; p++) {
    double by_state[2];
    for (int sustained = 0; sustained < 2; sustained++) {
      auto cfg = tiny_cluster(p ? core::Profile::afceph() : core::Profile::community(),
                              sustained != 0);
      cfg.vms = 8;
      core::ClusterSim cluster(cfg);
      auto spec = client::WorkloadSpec::rand_write(4096, 8);
      spec.warmup = 200 * kMillisecond;
      spec.runtime = 600 * kMillisecond;
      by_state[sustained] = cluster.run(spec).write_iops;
    }
    ratio[p] = by_state[0] / by_state[1];  // clean / sustained
  }
  EXPECT_GT(ratio[0], ratio[1]) << "community should lose more to sustained state";
}

}  // namespace
}  // namespace afc
