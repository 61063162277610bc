// Tests for the client layer: RBD striping, workload generation semantics,
// run-stats windowing, and the OSD-side pieces not covered elsewhere
// (DebugLog modes, MetaCache modes, ThrottleSet presets).

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "client/rbd.h"
#include "core/report.h"
#include "client/runner.h"
#include "common/rng.h"
#include "osd/dout.h"
#include "osd/meta_cache.h"
#include "osd/throttle_set.h"

namespace afc {
namespace {

// ---------------------------------------------------------------------------
// RBD striping
// ---------------------------------------------------------------------------

TEST(RbdImage, MapsOffsetsToObjects) {
  client::RbdImage img("vm1", 100 * kMiB);
  auto m0 = img.map(0);
  EXPECT_EQ(m0.object_offset, 0u);
  EXPECT_EQ(m0.length, 4 * kMiB);
  auto m1 = img.map(4 * kMiB);
  EXPECT_NE(m1.object_name, m0.object_name);
  auto mid = img.map(4 * kMiB + 4096);
  EXPECT_EQ(mid.object_name, m1.object_name);
  EXPECT_EQ(mid.object_offset, 4096u);
  EXPECT_EQ(mid.length, 4 * kMiB - 4096);
  EXPECT_EQ(img.object_count(), 25u);
}

TEST(RbdImage, ObjectNamesAreKrbdStyle) {
  client::RbdImage img("vm7", 16 * kMiB);
  EXPECT_EQ(img.object_name(0), "rbd_data.vm7.000000000000");
  EXPECT_EQ(img.object_name(0x4a), "rbd_data.vm7.00000000004a");
  // Distinct objects get distinct names.
  EXPECT_NE(img.object_name(1), img.object_name(2));
}

TEST(WorkloadSpec, PresetsAndNames) {
  auto w = client::WorkloadSpec::rand_write(4096, 8);
  EXPECT_DOUBLE_EQ(w.write_fraction, 1.0);
  EXPECT_EQ(w.to_string(), "randwrite-4K-qd8");
  auto r = client::WorkloadSpec::seq_read(4 * kMiB, 2);
  EXPECT_DOUBLE_EQ(r.write_fraction, 0.0);
  EXPECT_EQ(r.to_string(), "seqread-4M-qd2");
}

TEST(RunStats, WindowFiltersWarmupAndOverrun) {
  client::RunStats stats;
  stats.window_start = 100;
  stats.window_end = 200;
  stats.record(true, 50, 90);    // completed before window: excluded
  stats.record(true, 50, 150);   // issued before window: excluded
  stats.record(true, 120, 150);  // inside: counted
  stats.record(true, 150, 250);  // completes after window: excluded
  EXPECT_EQ(stats.writes_completed, 1u);
  EXPECT_EQ(stats.write_lat.count(), 1u);
  EXPECT_EQ(stats.write_lat.max(), 30u);
  // The time series still sees every completion (timeline view).
  EXPECT_GT(stats.write_series.size(), 0u);
}

TEST(RunStats, IopsFromWindow) {
  client::RunStats stats;
  stats.window_start = 0;
  stats.window_end = kSecond;
  for (int i = 0; i < 500; i++) stats.record(false, 10, 20 + Time(i));
  EXPECT_DOUBLE_EQ(stats.read_iops(), 500.0);
  EXPECT_DOUBLE_EQ(stats.write_iops(), 0.0);
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

TEST(HealthReport, ContainsEverySubsystem) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.vms = 2;
  cfg.pg_num = 64;
  cfg.image_size = 256 * kMiB;
  core::ClusterSim cluster(cfg);
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 20; i++) {
      co_await cluster.vm(0).write_once(std::uint64_t(i) * 4 * kMiB,
                                        Payload::pattern(4096, 1));
    }
  });
  cluster.simulation().run_until(5 * kSecond);
  const auto report = core::health_report(cluster);
  for (const char* marker : {"cluster health", "node.0", "osd.0", "journal:", "throttles:",
                             "filestore:", "kv:", "dout:", "meta-cache", "msgr:"}) {
    EXPECT_NE(report.find(marker), std::string::npos) << marker;
  }
  const auto summary = core::health_summary(cluster);
  EXPECT_NE(summary.find("osd.3"), std::string::npos);
  EXPECT_LT(summary.size(), report.size());
}

// ---------------------------------------------------------------------------
// DebugLog
// ---------------------------------------------------------------------------

struct LogFixture {
  sim::Simulation sim;
  sim::CpuPool cpu{sim, 4};
};

TEST(DebugLog, BlockingModeSerializesThroughOneWriter) {
  LogFixture f;
  osd::DebugLog::Config cfg;
  cfg.enabled = true;
  cfg.nonblocking = false;
  osd::DebugLog log(f.sim, f.cpu, cfg);
  Time done_at = 0;
  for (int i = 0; i < 4; i++) {
    sim::spawn_fn([&]() -> sim::CoTask<void> {
      co_await log.log(10);
      done_at = f.sim.now();
    });
  }
  f.sim.run();
  EXPECT_EQ(log.emitted(), 40u);
  EXPECT_EQ(log.written(), 40u);
  // Serialized writer: total time >= 4 x (writer cost of 10 entries).
  EXPECT_GE(done_at, 4 * 10 * cfg.writer_cpu);
}

TEST(DebugLog, NonBlockingReturnsQuicklyAndDropsOnOverflow) {
  LogFixture f;
  osd::DebugLog::Config cfg;
  cfg.nonblocking = true;
  cfg.writer_threads = 1;
  cfg.queue_capacity = 4;
  osd::DebugLog log(f.sim, f.cpu, cfg);
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 100; i++) co_await log.log(5);
  });
  f.sim.run();
  EXPECT_EQ(log.emitted(), 500u);
  EXPECT_GT(log.dropped(), 0u);
  EXPECT_EQ(log.written() + log.dropped(), 500u);
}

TEST(DebugLog, DisabledCostsNothing) {
  LogFixture f;
  osd::DebugLog::Config cfg;
  cfg.enabled = false;
  osd::DebugLog log(f.sim, f.cpu, cfg);
  sim::spawn_fn([&]() -> sim::CoTask<void> { co_await log.log(50); });
  f.sim.run();
  EXPECT_EQ(f.sim.now(), 0u);
  EXPECT_EQ(log.emitted(), 0u);
}

// ---------------------------------------------------------------------------
// MetaCache
// ---------------------------------------------------------------------------

TEST(MetaCache, LruEvictsAtCapacity) {
  osd::MetaCache::Config cfg;
  cfg.capacity = 3;
  osd::MetaCache cache(cfg);
  for (int i = 0; i < 5; i++) {
    cache.insert(fs::ObjectId{1, "obj" + std::to_string(i)}, osd::ObjectMeta{true, 4096, 1});
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(cache.lookup(fs::ObjectId{1, "obj0"}).has_value());
  EXPECT_TRUE(cache.lookup(fs::ObjectId{1, "obj4"}).has_value());
}

TEST(MetaCache, LookupRefreshesRecency) {
  osd::MetaCache::Config cfg;
  cfg.capacity = 2;
  osd::MetaCache cache(cfg);
  cache.insert(fs::ObjectId{1, "a"}, {});
  cache.insert(fs::ObjectId{1, "b"}, {});
  (void)cache.lookup(fs::ObjectId{1, "a"});  // refresh a
  cache.insert(fs::ObjectId{1, "c"}, {});    // evicts b, not a
  EXPECT_TRUE(cache.lookup(fs::ObjectId{1, "a"}).has_value());
  EXPECT_FALSE(cache.lookup(fs::ObjectId{1, "b"}).has_value());
}

TEST(MetaCache, HitMissCountersAndInvalidate) {
  osd::MetaCache cache(osd::MetaCache::Config{});
  const fs::ObjectId oid{2, "x"};
  EXPECT_FALSE(cache.lookup(oid).has_value());
  cache.insert(oid, osd::ObjectMeta{true, 123, 7});
  auto m = cache.lookup(oid);
  EXPECT_TRUE(m.has_value());
  EXPECT_EQ(m->size, 123u);
  cache.invalidate(oid);
  EXPECT_FALSE(cache.lookup(oid).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

// The flat MetaCache against a std::list + unordered_map LRU on a random
// lookup / insert / invalidate sequence: the same hits, misses, sizes and
// evictions. Keys share names across PGs, so a match must be exact.
TEST(MetaCache, MatchesReferenceLru) {
  struct RefLru {
    std::size_t capacity;
    std::list<std::pair<fs::ObjectId, osd::ObjectMeta>> lru;
    std::map<fs::ObjectId, decltype(lru)::iterator> where;
    std::uint64_t hits = 0, misses = 0;

    std::optional<osd::ObjectMeta> lookup(const fs::ObjectId& oid) {
      auto it = where.find(oid);
      if (it == where.end()) {
        misses++;
        return std::nullopt;
      }
      hits++;
      lru.splice(lru.begin(), lru, it->second);
      return it->second->second;
    }
    void insert(const fs::ObjectId& oid, const osd::ObjectMeta& meta) {
      if (auto it = where.find(oid); it != where.end()) {
        it->second->second = meta;
        lru.splice(lru.begin(), lru, it->second);
        return;
      }
      lru.emplace_front(oid, meta);
      where[oid] = lru.begin();
      if (where.size() > capacity) {
        where.erase(lru.back().first);
        lru.pop_back();
      }
    }
    void invalidate(const fs::ObjectId& oid) {
      if (auto it = where.find(oid); it != where.end()) {
        lru.erase(it->second);
        where.erase(it);
      }
    }
  };

  for (std::size_t capacity : {std::size_t(0), std::size_t(1), std::size_t(5), std::size_t(300)}) {
    SCOPED_TRACE(capacity);
    osd::MetaCache::Config cfg;
    cfg.capacity = capacity;
    osd::MetaCache cache(cfg);
    RefLru ref{capacity, {}, {}};
    Rng rng(capacity + 17);
    auto oid = [&]() {
      return fs::ObjectId{std::uint32_t(rng.uniform_int(0, 2)),
                          "rbd_data.1." + std::to_string(rng.uniform_int(0, 200))};
    };
    for (int step = 0; step < 20000; step++) {
      const fs::ObjectId o = oid();
      switch (rng.uniform_int(0, 5)) {
        case 0:
        case 1: {
          const osd::ObjectMeta m{true, rng.uniform_int(0, 1 << 22), std::uint64_t(step)};
          cache.insert(o, m);
          ref.insert(o, m);
          break;
        }
        case 2:
          cache.invalidate(o);
          ref.invalidate(o);
          break;
        default: {
          auto got = cache.lookup(o);
          auto want = ref.lookup(o);
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (got) {
            ASSERT_EQ(got->size, want->size);
            ASSERT_EQ(got->version, want->version);
          }
          break;
        }
      }
      ASSERT_EQ(cache.size(), ref.where.size()) << "step " << step;
      ASSERT_EQ(cache.hits(), ref.hits);
      ASSERT_EQ(cache.misses(), ref.misses);
    }
    // Same size and every reference key resident: the same entries were
    // evicted (lookups never evict).
    for (const auto& [o, m] : ref.lru) ASSERT_TRUE(cache.lookup(o).has_value());
    EXPECT_EQ(cache.size(), ref.lru.size());
  }
}

// ---------------------------------------------------------------------------
// ThrottleSet presets
// ---------------------------------------------------------------------------

TEST(ThrottleSet, PresetsMatchPaperValues) {
  auto community = osd::ThrottleSet::Config::community();
  EXPECT_EQ(community.filestore_queue_max_ops, 50u);  // Ceph 0.94 default
  EXPECT_EQ(community.client_message_cap, 100u);
  auto ssd = osd::ThrottleSet::Config::ssd_tuned();
  EXPECT_GT(ssd.filestore_queue_max_ops, 20 * community.filestore_queue_max_ops);
  EXPECT_GT(ssd.client_message_cap, 10 * community.client_message_cap);
}

}  // namespace
}  // namespace afc
