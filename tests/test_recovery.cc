// Tests for the one redundancy rule per PG (PgBackend::plan_remap, applied
// through osd/recovery.h) and the one client write path: the remap rule
// itself (source, targets) for both schemes, its detected-membership
// caller (a returning primary is backfilled; an EC mark-out re-places and
// rebuilds every position), and the write path's failure rules — a client
// op for a PG the OSD does not hold, and a write that reaches an OSD
// outside the PG's acting set.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "afceph.h"

namespace afc {
namespace {

constexpr std::uint32_t kNoOsd = cluster::ClusterMap::kNoOsd;

/// Six OSDs, one per host, 64 PGs and no clients: a map to move and the
/// scheme's remap rule (PgBackend::plan_remap) to plan on it.
struct RuleRig {
  core::ClusterSim cluster;
  cluster::ClusterMap& cmap;
  const osd::PgBackend& scheme;

  static core::ClusterConfig config(unsigned replication, bool ec) {
    core::ClusterConfig cfg;
    cfg.osd_nodes = 6;
    cfg.osds_per_node = 1;
    cfg.client_nodes = 0;
    cfg.vms = 0;
    cfg.pg_num = 64;
    cfg.replication = replication;
    cfg.ec_pool = ec;
    cfg.ec_k = 2;
    cfg.ec_m = 2;
    return cfg;
  }
  RuleRig(unsigned replication, bool ec)
      : cluster(config(replication, ec)),
        cmap(cluster.map()),
        scheme(cluster.osd(0).pg_backend()) {}
  ~RuleRig() {
    cluster.close_all();
    cluster.simulation().run();
  }
};

/// First PG whose acting set contains `osd`.
std::uint32_t pg_holding(const cluster::ClusterMap& cmap, std::uint32_t osd) {
  for (std::uint32_t pg = 0; pg < cmap.pool().pg_num; pg++) {
    const auto& a = cmap.acting(pg);
    if (std::find(a.begin(), a.end(), osd) != a.end()) return pg;
  }
  ADD_FAILURE() << "no PG holds osd." << osd;
  return 0;
}

// ---------------------------------------------------------------------------
// The rule

TEST(RemapRule, ReplicatedTargetsNewcomersFromFirstUpOldMember) {
  RuleRig rig(3, false);
  cluster::ClusterMap& cmap = rig.cmap;
  const std::uint32_t pg = pg_holding(cmap, 2);
  const osd::MapChange change(cmap);
  const std::vector<std::uint32_t> old = cmap.acting(pg);
  cmap.crush().set_up(2, false);
  cmap.bump_epoch();

  const osd::PgRemap r = rig.scheme.plan_remap(pg, old);
  EXPECT_FALSE(r.decode);
  EXPECT_EQ(r.now, cmap.acting(pg));
  const std::uint32_t first_up = old[0] == 2 ? old[1] : old[0];
  EXPECT_EQ(r.source, first_up);
  ASSERT_EQ(r.targets.size(), 1u);  // exactly the replacement for osd.2
  const std::uint32_t newcomer = r.now[r.targets[0]];
  EXPECT_EQ(std::find(old.begin(), old.end(), newcomer), old.end());

  // MapChange applies the same rule to every moved PG, ascending.
  const auto remaps = change.remaps(rig.scheme);
  ASSERT_FALSE(remaps.empty());
  for (std::size_t i = 1; i < remaps.size(); i++) EXPECT_LT(remaps[i - 1].pg, remaps[i].pg);
  const auto it = std::find_if(remaps.begin(), remaps.end(),
                               [pg](const osd::PgRemap& x) { return x.pg == pg; });
  ASSERT_NE(it, remaps.end());
  EXPECT_EQ(it->source, r.source);
  EXPECT_EQ(it->targets, r.targets);
}

TEST(RemapRule, ReplicatedWithoutSurvivingSourceHasNoTargets) {
  RuleRig rig(2, false);
  cluster::ClusterMap& cmap = rig.cmap;
  const std::uint32_t pg = 0;
  const std::vector<std::uint32_t> old = cmap.acting(pg);
  for (std::uint32_t m : old) cmap.crush().set_up(m, false);
  cmap.bump_epoch();

  const osd::PgRemap r = rig.scheme.plan_remap(pg, old);
  EXPECT_EQ(r.source, kNoOsd);
  EXPECT_TRUE(r.targets.empty());  // nothing left to copy from
}

TEST(RemapRule, ErasureTargetsChangedPositionsAndSkipsHoles) {
  RuleRig rig(2, true);
  cluster::ClusterMap& cmap = rig.cmap;
  const std::uint32_t pg = pg_holding(cmap, 3);
  const std::vector<std::uint32_t> old = cmap.acting(pg);
  const unsigned pos3 = unsigned(std::find(old.begin(), old.end(), 3u) - old.begin());
  cmap.crush().set_up(3, false);
  cmap.bump_epoch();

  const osd::PgRemap r = rig.scheme.plan_remap(pg, old);
  EXPECT_TRUE(r.decode);
  ASSERT_EQ(r.targets, std::vector<unsigned>{pos3});  // survivors keep their slots
  EXPECT_NE(r.now[pos3], 3u);
  EXPECT_NE(r.now[pos3], kNoOsd);

  // With no spare left the vacated position holes to kNoOsd: not a target.
  RuleRig tight_rig(2, true);
  cluster::ClusterMap& tight = tight_rig.cmap;
  for (std::uint32_t o : {4u, 5u}) tight.crush().set_up(o, false);
  tight.bump_epoch();
  const std::uint32_t tpg = pg_holding(tight, 3);
  const std::vector<std::uint32_t> told = tight.acting(tpg);
  tight.crush().set_up(3, false);
  tight.bump_epoch();
  const osd::PgRemap h = tight_rig.scheme.plan_remap(tpg, told);
  EXPECT_NE(std::find(h.now.begin(), h.now.end(), kNoOsd), h.now.end());
  EXPECT_TRUE(h.targets.empty());
}

// ---------------------------------------------------------------------------
// Detected membership drives the same rule

/// The chaos soak's cluster, in detected-membership mode.
core::ClusterConfig detected_chaos_config(std::uint64_t seed) {
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

/// Deep scrub on a detected-mode cluster. The heartbeat ticks are daemon
/// events, so run() returns once the scrub's own work is done.
core::ClusterSim::ScrubReport scrub_now(core::ClusterSim& cluster) {
  std::optional<core::ClusterSim::ScrubReport> out;
  sim::spawn_fn([&cluster, &out]() -> sim::CoTask<void> {
    out = co_await cluster.deep_scrub(/*repair=*/false);
  });
  cluster.simulation().run();
  EXPECT_TRUE(out.has_value()) << "scrub did not finish";
  return out.value_or(core::ClusterSim::ScrubReport{});
}

TEST(DetectedRecovery, RestartBackfillsAReturningPrimary) {
  core::ClusterSim cluster(detected_chaos_config(42));
  fault::FaultPlan plan;
  plan.crash_restart(300 * kMillisecond, 1, 250 * kMillisecond);
  cluster.install_faults(plan);

  client::RunStats stats;
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 100 * kMillisecond;
  spec.runtime = 900 * kMillisecond;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run();  // the workload, then the drain

  // osd.1 comes back as primary of some PGs; the first up member of their
  // old (degraded) set is the source and backfills it.
  std::uint64_t backfills = 0;
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    backfills += cluster.osd(o).counters().get("osd.map_backfills");
  }
  EXPECT_GT(backfills, 0u);
  const core::ClusterSim::ScrubReport rep = scrub_now(cluster);
  EXPECT_GT(rep.objects_scrubbed, 0u);
  EXPECT_EQ(rep.inconsistent, 0u);
  EXPECT_EQ(rep.missing, 0u);

  cluster.close_all();
  cluster.simulation().run();
}

TEST(DetectedRecovery, ErasureMarkOutRebuildsEveryReplacedPosition) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 8;  // two spares beyond the 6-wide stripe
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 1;
  cfg.pg_num = 32;
  cfg.ec_pool = true;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  cfg.sustained = false;
  cfg.image_size = 512 * kMiB;
  cfg.seed = 11;
  cfg.osd.rep_timeout = 20 * kMillisecond;
  cfg.osd.rep_retries = 1;
  cfg.membership.mode = mon::MembershipMode::kDetected;
  cfg.membership.down_out_interval = 300 * kMillisecond;
  core::ClusterSim cluster(cfg);
  fault::FaultPlan plan;
  plan.crash(100 * kMillisecond, 1);  // kept down: marked down, then out
  cluster.install_faults(plan);

  std::vector<std::vector<std::uint32_t>> before;
  for (std::uint32_t pg = 0; pg < cfg.pg_num; pg++) before.push_back(cluster.map().acting(pg));
  std::set<fs::ObjectId> written;  // base objects, one stripe each
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (std::uint64_t i = 0; i < 32; i++) {
      const std::uint64_t off = i * 4 * kMiB;
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, Payload::pattern(4096, i + 1)));
      const std::string name = cluster.vm(0).image().map(off).object_name;
      written.insert(fs::ObjectId{cluster.map().pg_of(name), name});
    }
    done = true;
  });
  cluster.simulation().run_until(2 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_FALSE(cluster.map().crush().is_in(1));

  unsigned replaced = 0;
  for (std::uint32_t pg = 0; pg < cfg.pg_num; pg++) {
    const auto& now = cluster.map().acting(pg);
    for (unsigned p = 0; p < now.size(); p++) {
      if (now[p] == before[pg][p] || now[p] == kNoOsd) continue;
      replaced++;
      osd::Osd& holder = cluster.osd(now[p]);
      EXPECT_NE(holder.find_pg(pg), nullptr) << "pg " << pg << " position " << p;
      for (const fs::ObjectId& base : written) {
        if (base.pg != pg) continue;
        EXPECT_TRUE(holder.store().object_in_memory(ec::shard_oid(base, p)))
            << base.name() << " position " << p << " not rebuilt on osd." << now[p];
      }
    }
  }
  EXPECT_GT(replaced, 0u);

  cluster.close_all();
  cluster.simulation().run();
}

// ---------------------------------------------------------------------------
// Client write failure rules

/// A bare client endpoint: sends hand-built client ops to one OSD and
/// records the replies.
struct ProbeClient : net::Receiver {
  ProbeClient(core::ClusterSim& cluster, std::uint32_t osd)
      : node(cluster.simulation(), "probe", net::Node::Config{4, 1250 * kMiB}),
        msgr(cluster.simulation(), node, *this, "probe"),
        conn(msgr.connect(cluster.osd(osd).messenger(), net::Connection::Config{})) {}

  sim::CoTask<void> on_message(net::Message m) override {
    replies.push_back(*std::static_pointer_cast<osd::IoReplyMsg>(m.body));
    co_return;
  }

  void write(std::uint32_t pg, const std::string& name) {
    auto body = std::make_shared<osd::ClientIoMsg>();
    body->op_id = ++next_op;
    body->client_id = 99;
    body->pg = pg;
    body->oid = fs::ObjectId{pg, name};
    body->data = Payload::pattern(4096, 7);
    body->is_write = true;
    net::Message wire;
    wire.type = osd::kClientWrite;
    wire.size = 4096 + 200;
    wire.body = std::move(body);
    conn->send(std::move(wire));
  }

  net::Node node;
  net::Messenger msgr;
  net::Connection* conn;
  std::uint64_t next_op = 0;
  std::vector<osd::IoReplyMsg> replies;
};

core::ClusterConfig four_osds(bool erasure) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 1;
  cfg.pg_num = 32;
  cfg.replication = 2;
  cfg.ec_pool = erasure;
  cfg.ec_k = 2;
  cfg.ec_m = 1;
  cfg.sustained = false;
  cfg.image_size = 256 * kMiB;
  return cfg;
}

TEST(ClientWriteRules, OpForUnheldPgFailsAndReleasesThrottles) {
  core::ClusterSim cluster(four_osds(/*erasure=*/false));
  osd::Osd& target = cluster.osd(0);
  const std::uint32_t unknown_pg = 1000;
  ASSERT_EQ(target.find_pg(unknown_pg), nullptr);
  // Ids past every entry created: the PG table, the peer table and the
  // client's connection table all answer "none".
  EXPECT_EQ(target.find_pg(1u << 30), nullptr);
  EXPECT_EQ(target.peer(0), nullptr);  // no connection to itself
  EXPECT_NE(target.peer(1), nullptr);
  EXPECT_EQ(target.peer(std::uint32_t(cluster.osd_count())), nullptr);
  EXPECT_EQ(target.peer(kNoOsd), nullptr);
  client::VmClient& vm = cluster.vm(0);
  EXPECT_NE(vm.osd_conn(0), nullptr);
  EXPECT_EQ(vm.osd_conn(std::uint32_t(cluster.osd_count())), nullptr);
  EXPECT_EQ(vm.osd_conn(kNoOsd), nullptr);
  ProbeClient probe(cluster, 0);
  probe.write(unknown_pg, "orphan");
  cluster.simulation().run();

  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_FALSE(probe.replies[0].ok);
  EXPECT_EQ(probe.replies[0].op_id, 1u);
  EXPECT_EQ(target.throttles().messages.in_use(), 0u);
  EXPECT_EQ(target.throttles().message_bytes.in_use(), 0u);
  EXPECT_EQ(target.counters().get("osd.write_failures"), 1u);

  // Wiring an id beyond the table's end grows it; the ids skipped stay empty.
  net::Connection* to_one = target.peer(1);
  target.add_peer(70, to_one);
  EXPECT_EQ(target.peer(70), to_one);
  EXPECT_EQ(target.peer(69), nullptr);
  EXPECT_EQ(target.peer(1), to_one);
  net::Connection* vm_to_one = vm.osd_conn(1);
  vm.add_osd_conn(70, vm_to_one);
  EXPECT_EQ(vm.osd_conn(70), vm_to_one);
  EXPECT_EQ(vm.osd_conn(69), nullptr);
  EXPECT_EQ(vm.osd_conn(1), vm_to_one);

  probe.msgr.close_all();
  cluster.close_all();
  cluster.simulation().run();
}

class NotInActingSet : public ::testing::TestWithParam<bool> {};

TEST_P(NotInActingSet, WriteFails) {
  core::ClusterSim cluster(four_osds(GetParam()));
  // A PG and an OSD outside its acting set that still holds the PG (as a
  // member left behind by a remap does), reached by a stale-map client.
  const std::uint32_t pg = 3;
  const auto& acting = cluster.map().acting(pg);
  std::uint32_t outsider = 0;
  while (std::find(acting.begin(), acting.end(), outsider) != acting.end()) outsider++;
  ASSERT_LT(outsider, cluster.osd_count());
  cluster.osd(outsider).create_pg(pg, acting);

  ProbeClient probe(cluster, outsider);
  probe.write(pg, "stale");
  cluster.simulation().run();

  ASSERT_EQ(probe.replies.size(), 1u);
  EXPECT_FALSE(probe.replies[0].ok);
  EXPECT_EQ(cluster.osd(outsider).counters().get("osd.write_failures"), 1u);
  EXPECT_EQ(cluster.osd(outsider).client_writes(), 0u);  // nothing journaled
  for (std::uint32_t m : acting) EXPECT_EQ(cluster.osd(m).replica_ops(), 0u);  // no sub-ops

  probe.msgr.close_all();
  cluster.close_all();
  cluster.simulation().run();
}

INSTANTIATE_TEST_SUITE_P(Schemes, NotInActingSet, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "erasure" : "replicated");
                         });

}  // namespace
}  // namespace afc
