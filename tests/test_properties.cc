// Property-based suites: randomized operation sequences checked against
// reference models, and parameterized sweeps (TEST_P) over configuration
// space. These are the heavy-artillery invariant checks:
//
//  * each store backend's extent map == flat reference buffer under random
//    unaligned writes;
//  * LSM Db == std::map under random put/del/get across config corners;
//  * simulator determinism: identical seeds => identical results;
//  * payload slicing algebra;
//  * CRUSH balance/stability across cluster shapes;
//  * end-to-end cluster verify under mixed load for every ladder step.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/cluster_sim.h"
#include "store_harness.h"

namespace afc {
namespace {

// ---------------------------------------------------------------------------
// Store extent map vs flat buffer, on both backends
// ---------------------------------------------------------------------------

struct ExtentMapCase {
  store::Backend backend;
  std::uint64_t seed;
};

// Prints the seed, so the FileStore cases keep their seed-named test names.
void PrintTo(const ExtentMapCase& c, std::ostream* os) {
  *os << c.seed;
  if (c.backend != store::Backend::kFile) *os << " on " << store::backend_name(c.backend);
}

class ExtentMapProperty : public ::testing::TestWithParam<ExtentMapCase> {};

TEST_P(ExtentMapProperty, RandomWritesMatchReferenceBuffer) {
  const std::uint64_t seed = GetParam().seed;
  store::StoreConfig cfg;
  cfg.backend = GetParam().backend;
  store::StoreRig<> rig(cfg);
  store::ObjectStore& store = rig.store;

  constexpr std::uint64_t kObjectSize = 64 * 1024;
  std::vector<std::uint8_t> reference(kObjectSize, 0);
  const fs::ObjectId oid{1, "prop"};

  rig.run([&]() -> sim::CoTask<void> {
    Rng rng(seed);
    for (int i = 0; i < 200; i++) {
      // Random write: arbitrary (unaligned!) offset and length.
      const std::uint64_t off = rng.uniform_int(0, kObjectSize - 2);
      const std::uint64_t len = rng.uniform_int(1, std::min<std::uint64_t>(kObjectSize - off, 9000));
      auto payload = Payload::pattern(len, seed * 1000 + std::uint64_t(i));
      auto bytes = payload.materialize();
      std::copy(bytes.begin(), bytes.end(), reference.begin() + long(off));

      fs::Transaction t;
      t.write(oid, off, std::move(payload));
      co_await store.apply_transaction(t, (i % 2) == 0);  // alternate paths

      if (i % 20 == 19) {
        // Random read-back check of an arbitrary window.
        const std::uint64_t roff = rng.uniform_int(0, kObjectSize - 2);
        const std::uint64_t rlen = rng.uniform_int(1, kObjectSize - roff);
        auto r = co_await store.read(oid, roff, rlen);
        EXPECT_TRUE(r.found);
        const std::uint64_t upto = std::min(rlen, store.object_size(oid) > roff
                                                      ? store.object_size(oid) - roff
                                                      : 0);
        EXPECT_EQ(r.length, upto);
        if (r.data.has_value()) {
          for (std::uint64_t b = 0; b < r.length; b++) {
            if ((*r.data)[b] != reference[roff + b]) {
              ADD_FAILURE() << "mismatch at " << roff + b << " iter " << i;
              break;
            }
          }
        }
      }
    }
    // Final full comparison over the written prefix.
    const std::uint64_t size = store.object_size(oid);
    auto r = co_await store.read(oid, 0, size);
    EXPECT_EQ(r.length, size);
    bool equal = true;
    for (std::uint64_t b = 0; b < size; b++) equal &= (*r.data)[b] == reference[b];
    EXPECT_TRUE(equal);
  });
}

std::vector<ExtentMapCase> extent_map_cases(store::Backend backend) {
  std::vector<ExtentMapCase> cases;
  for (std::uint64_t seed : {1, 2, 3, 5, 8, 13, 21, 34}) cases.push_back({backend, seed});
  return cases;
}

// More than the 1,024 4K extents a 4 MiB object can hold, in one object:
// the flat extent list grows past any reserve, then page-sized and
// unaligned overwrites split and trim extents deep inside it.
TEST(ExtentMapProperty, ThousandsOfPageExtentsMatchReferenceBuffer) {
  constexpr std::uint64_t kPage = 4096;
  constexpr std::uint64_t kPages = 1300;
  for (store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    SCOPED_TRACE(store::backend_name(backend));
    store::StoreConfig cfg;
    cfg.backend = backend;
    store::StoreRig<> rig(cfg);
    store::ObjectStore& store = rig.store;
    std::vector<std::uint8_t> reference(kPages * kPage, 0);
    const fs::ObjectId oid{1, "many"};
    auto put = [&](std::uint64_t off, Payload payload) -> sim::CoTask<void> {
      const auto bytes = payload.materialize();
      std::copy(bytes.begin(), bytes.end(), reference.begin() + long(off));
      fs::Transaction t;
      t.write(oid, off, std::move(payload));
      co_await store.apply_transaction(t, false);
    };

    rig.run([&]() -> sim::CoTask<void> {
      Rng rng(77);
      std::vector<std::uint64_t> order(kPages);
      for (std::uint64_t i = 0; i < kPages; i++) order[i] = i;
      for (std::uint64_t i = kPages - 1; i > 0; i--) {
        std::swap(order[i], order[rng.uniform_int(0, i)]);
      }
      for (std::uint64_t page : order) {
        co_await put(page * kPage, Payload::pattern(kPage, 5000 + page));
      }
      EXPECT_EQ(store.export_object(oid).extents.size(), kPages);

      for (int i = 0; i < 300; i++) {
        const std::uint64_t off = rng.uniform_int(0, kPages * kPage - 2);
        const std::uint64_t len =
            rng.uniform_int(1, std::min<std::uint64_t>(kPages * kPage - off, 3 * kPage));
        co_await put(off, Payload::pattern(len, 9000 + std::uint64_t(i)));
      }
      EXPECT_GT(store.export_object(oid).extents.size(), std::size_t(1024));
      EXPECT_TRUE(store.verify_object(oid));
      auto r = co_await store.read(oid, 0, kPages * kPage);
      EXPECT_EQ(r.length, kPages * kPage);
      EXPECT_TRUE(r.data.has_value() && *r.data == reference);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapProperty,
                         ::testing::ValuesIn(extent_map_cases(store::Backend::kFile)));
INSTANTIATE_TEST_SUITE_P(FlashSeeds, ExtentMapProperty,
                         ::testing::ValuesIn(extent_map_cases(store::Backend::kFlash)));

// ---------------------------------------------------------------------------
// LSM Db vs std::map across configuration corners
// ---------------------------------------------------------------------------

struct DbCorner {
  const char* name;
  std::uint64_t memtable;
  int l0_trigger;
  std::uint64_t target_file;
};

// Without a printer gtest dumps the raw bytes, name pointer included, into the
// listed test name, which then changes from build to build.
void PrintTo(const DbCorner& c, std::ostream* os) { *os << c.name; }

class DbProperty : public ::testing::TestWithParam<DbCorner> {};

TEST_P(DbProperty, RandomOpsMatchStdMap) {
  const DbCorner corner = GetParam();
  sim::Simulation sim;
  dev::SsdModel ssd(sim, "ssd", dev::SsdModel::Config{});
  kv::Db::Config cfg;
  cfg.memtable_bytes = corner.memtable;
  cfg.l0_compaction_trigger = corner.l0_trigger;
  cfg.target_file_bytes = corner.target_file;
  cfg.base_level_bytes = corner.target_file * 4;
  kv::Db db(sim, ssd, cfg);

  std::map<std::string, std::string> ref;
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    Rng rng(0xDB + corner.memtable);
    for (int i = 0; i < 2500; i++) {
      const std::string key = "key" + std::to_string(rng.uniform_int(0, 600));
      const double dice = rng.uniform();
      if (dice < 0.55) {
        const std::string val = "v" + std::to_string(i);
        co_await db.put(key, kv::Value::real(val));
        ref[key] = val;
      } else if (dice < 0.75) {
        co_await db.del(key);
        ref.erase(key);
      } else {
        auto got = co_await db.get(key);
        auto it = ref.find(key);
        if (it == ref.end()) {
          EXPECT_FALSE(got.has_value()) << key << " iter " << i;
        } else {
          EXPECT_TRUE(got.has_value()) << key << " iter " << i;
          if (got) {
            EXPECT_EQ(got->data(), it->second);
          }
        }
      }
    }
    co_await db.drain();
    // Full sweep at the end.
    for (const auto& [k, v] : ref) {
      auto got = co_await db.get(k);
      EXPECT_TRUE(got.has_value()) << k;
      if (got) {
        EXPECT_EQ(got->data(), v) << k;
      }
    }
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, DbProperty,
    ::testing::Values(DbCorner{"tiny_tables", 4 * 1024, 2, 4 * 1024},
                      DbCorner{"small", 16 * 1024, 4, 16 * 1024},
                      DbCorner{"mid", 64 * 1024, 3, 32 * 1024},
                      DbCorner{"hair_trigger", 2 * 1024, 2, 2 * 1024}),
    [](const ::testing::TestParamInfo<DbCorner>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Simulator determinism
// ---------------------------------------------------------------------------

TEST(Determinism, IdenticalSeedsIdenticalResults) {
  auto run_once = [] {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::afceph();
    cfg.osd_nodes = 2;
    cfg.osds_per_node = 2;
    cfg.vms = 4;
    cfg.pg_num = 64;
    cfg.image_size = 256 * kMiB;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 4);
    spec.warmup = 100 * kMillisecond;
    spec.runtime = 400 * kMillisecond;
    auto r = cluster.run(spec);
    return std::make_tuple(r.write_iops, r.write_lat.count(), r.write_lat.max(),
                           cluster.simulation().executed_events());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b) << "simulation is not deterministic";
}

TEST(Determinism, DifferentSeedsDiffer) {
  auto run_once = [](std::uint64_t seed) {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::afceph();
    cfg.osd_nodes = 2;
    cfg.osds_per_node = 2;
    cfg.vms = 4;
    cfg.pg_num = 64;
    cfg.image_size = 256 * kMiB;
    cfg.seed = seed;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 4);
    spec.warmup = 100 * kMillisecond;
    spec.runtime = 400 * kMillisecond;
    return cluster.run(spec).write_lat.mean();
  };
  EXPECT_NE(run_once(1), run_once(2));
}

// ---------------------------------------------------------------------------
// Payload algebra
// ---------------------------------------------------------------------------

class PayloadProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PayloadProperty, SliceOfSliceEqualsDirectSlice) {
  Rng rng(GetParam());
  auto base = Payload::pattern(8192, GetParam() * 37);
  for (int i = 0; i < 50; i++) {
    const std::uint64_t o1 = rng.uniform_int(0, 4000);
    const std::uint64_t l1 = rng.uniform_int(1, 8192 - o1);
    const std::uint64_t o2 = rng.uniform_int(0, l1 - 1);
    const std::uint64_t l2 = rng.uniform_int(1, l1 - o2);
    auto nested = base.slice(o1, l1).slice(o2, l2);
    auto direct = base.slice(o1 + o2, l2);
    EXPECT_TRUE(nested.content_equals(direct));
    EXPECT_EQ(nested.fingerprint(), direct.fingerprint());
  }
}

TEST_P(PayloadProperty, MaterializeRoundTripsThroughBytes) {
  auto v = Payload::pattern(1024, GetParam());
  auto real = Payload::bytes(v.materialize());
  EXPECT_TRUE(v.content_equals(real));
  // Slices agree across representations.
  EXPECT_TRUE(v.slice(100, 300).content_equals(real.slice(100, 300)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadProperty, ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// CRUSH across cluster shapes
// ---------------------------------------------------------------------------

struct Shape {
  const char* name;
  unsigned hosts;
  unsigned per_host;
  unsigned replication;
};

void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

class CrushProperty : public ::testing::TestWithParam<Shape> {};

TEST_P(CrushProperty, BalancedAndHostSeparated) {
  const Shape s = GetParam();
  cluster::Crush c;
  for (unsigned i = 0; i < s.hosts * s.per_host; i++) c.add_osd(i, i / s.per_host);
  std::map<std::uint32_t, int> load;
  const int pgs = 4096;
  for (std::uint32_t pg = 0; pg < std::uint32_t(pgs); pg++) {
    auto acting = c.place(0, pg, s.replication);
    ASSERT_EQ(acting.size(), std::size_t(s.replication));
    std::set<std::uint32_t> hosts;
    for (auto osd : acting) {
      load[osd]++;
      hosts.insert(osd / s.per_host);
    }
    if (s.hosts >= s.replication) {
      EXPECT_EQ(hosts.size(), s.replication);
    }
  }
  const double expected = double(pgs) * s.replication / double(s.hosts * s.per_host);
  for (const auto& [osd, n] : load) EXPECT_NEAR(n, expected, expected * 0.45) << "osd " << osd;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CrushProperty,
                         ::testing::Values(Shape{"paper_4x4_r2", 4, 4, 2},
                                           Shape{"wide_16x4_r2", 16, 4, 2},
                                           Shape{"triple_8x2_r3", 8, 2, 3},
                                           Shape{"dense_2x8_r2", 2, 8, 2}),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// End-to-end verify under mixed load, across the whole ladder
// ---------------------------------------------------------------------------

class LadderVerify : public ::testing::TestWithParam<int> {};

TEST_P(LadderVerify, MixedWorkloadVerifiesEndToEnd) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::ladder(GetParam());
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.vms = 3;
  cfg.pg_num = 64;
  cfg.image_size = 128 * kMiB;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = 0.6;
  spec.verify = true;  // reads check fio-style patterns end to end
  spec.warmup = 0;
  spec.runtime = 500 * kMillisecond;
  auto r = cluster.run(spec);
  EXPECT_EQ(r.verify_failures, 0u) << "ladder step " << GetParam();
  EXPECT_GT(r.write_lat.count() + r.read_lat.count(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Steps, LadderVerify, ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string("step") + std::to_string(info.param);
                         });

}  // namespace
}  // namespace afc
