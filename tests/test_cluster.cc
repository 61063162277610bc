// Tests for CRUSH placement and the cluster map: determinism, balance,
// replica separation across hosts, minimal movement on expansion, failure
// handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cluster/map.h"

namespace afc::cluster {
namespace {

Crush make_crush(unsigned nodes, unsigned osds_per_node) {
  Crush c;
  for (unsigned i = 0; i < nodes * osds_per_node; i++) c.add_osd(i, i / osds_per_node);
  return c;
}

TEST(Crush, Deterministic) {
  Crush a = make_crush(4, 4);
  Crush b = make_crush(4, 4);
  for (std::uint32_t pg = 0; pg < 256; pg++) {
    EXPECT_EQ(a.place(0, pg, 2), b.place(0, pg, 2));
  }
}

TEST(Crush, ReturnsDistinctOsdsAcrossHosts) {
  Crush c = make_crush(4, 4);
  for (std::uint32_t pg = 0; pg < 512; pg++) {
    auto acting = c.place(0, pg, 2);
    ASSERT_EQ(acting.size(), 2u);
    EXPECT_NE(acting[0], acting[1]);
    EXPECT_NE(acting[0] / 4, acting[1] / 4) << "replicas share a host for pg " << pg;
  }
}

TEST(Crush, BalancedPrimaryDistribution) {
  Crush c = make_crush(4, 4);
  std::map<std::uint32_t, int> primaries;
  const int pgs = 4096;
  for (std::uint32_t pg = 0; pg < std::uint32_t(pgs); pg++) primaries[c.place(0, pg, 2)[0]]++;
  const double expected = double(pgs) / 16.0;
  for (const auto& [osd, n] : primaries) {
    EXPECT_NEAR(n, expected, expected * 0.35) << "osd " << osd;
  }
  EXPECT_EQ(primaries.size(), 16u);
}

TEST(Crush, WeightsSkewPlacement) {
  Crush c;
  c.add_osd(0, 0, 1.0);
  c.add_osd(1, 1, 3.0);
  c.add_osd(2, 2, 1.0);
  std::map<std::uint32_t, int> primaries;
  for (std::uint32_t pg = 0; pg < 3000; pg++) primaries[c.place(0, pg, 1)[0]]++;
  EXPECT_GT(primaries[1], primaries[0] * 2);
  EXPECT_GT(primaries[1], primaries[2] * 2);
}

TEST(Crush, MinimalMovementOnExpansion) {
  // Straw2 property: adding OSDs only moves the PGs they win.
  Crush before = make_crush(4, 4);
  Crush after = make_crush(4, 4);
  for (unsigned i = 16; i < 20; i++) after.add_osd(i, 4);  // a 5th node

  const int pgs = 2048;
  int moved_primary = 0;
  int to_new = 0;
  for (std::uint32_t pg = 0; pg < std::uint32_t(pgs); pg++) {
    const auto a = before.place(0, pg, 2);
    const auto b = after.place(0, pg, 2);
    if (a[0] != b[0]) {
      moved_primary++;
      if (b[0] >= 16) to_new++;
    }
  }
  // Expected: ~1/5 of primaries move, and essentially all moves target the
  // new node.
  EXPECT_NEAR(moved_primary, pgs / 5, pgs / 12);
  EXPECT_GT(double(to_new) / double(moved_primary), 0.95);
}

TEST(Crush, DownOsdExcluded) {
  Crush c = make_crush(4, 4);
  c.set_up(3, false);
  for (std::uint32_t pg = 0; pg < 1024; pg++) {
    for (auto osd : c.place(0, pg, 2)) EXPECT_NE(osd, 3u);
  }
  c.set_up(3, true);
  bool seen = false;
  for (std::uint32_t pg = 0; pg < 1024 && !seen; pg++) {
    for (auto osd : c.place(0, pg, 2)) seen |= osd == 3;
  }
  EXPECT_TRUE(seen);
}

TEST(Crush, RelaxesHostConstraintWhenHostsScarce) {
  Crush c;
  c.add_osd(0, 0);
  c.add_osd(1, 0);
  c.add_osd(2, 0);  // one host only
  auto acting = c.place(0, 7, 2);
  ASSERT_EQ(acting.size(), 2u);
  EXPECT_NE(acting[0], acting[1]);
}

TEST(ClusterMap, PgOfStableAndInRange) {
  ClusterMap m(ClusterMap::PoolConfig{256, 2});
  EXPECT_EQ(m.pg_of("rbd_data.vm1.000000000001"), m.pg_of("rbd_data.vm1.000000000001"));
  std::set<std::uint32_t> pgs;
  for (int i = 0; i < 5000; i++) {
    const auto pg = m.pg_of("rbd_data.vm1." + std::to_string(i));
    ASSERT_LT(pg, 256u);
    pgs.insert(pg);
  }
  EXPECT_GT(pgs.size(), 250u);  // objects spread over nearly all PGs
}

TEST(ClusterMap, ActingCacheInvalidatesOnEpochBump) {
  ClusterMap m(ClusterMap::PoolConfig{128, 2});
  for (unsigned i = 0; i < 8; i++) m.crush().add_osd(i, i / 2);
  const auto before = m.acting(7);
  // Add OSDs without bumping: cached answer must not change.
  for (unsigned i = 8; i < 12; i++) m.crush().add_osd(i, 4 + (i - 8) / 2);
  EXPECT_EQ(m.acting(7), before);
  m.bump_epoch();
  bool any_changed = false;
  for (std::uint32_t pg = 0; pg < 128; pg++) {
    ClusterMap fresh(ClusterMap::PoolConfig{128, 2});
    for (unsigned i = 0; i < 12; i++) {
      fresh.crush().add_osd(i, i < 8 ? i / 2 : 4 + (i - 8) / 2);
    }
    if (m.acting(pg) != before) any_changed = true;
    EXPECT_EQ(m.acting(pg), fresh.acting(pg));
  }
  EXPECT_TRUE(any_changed);
}

TEST(ClusterMap, PrimaryIsFirstOfActing) {
  ClusterMap m(ClusterMap::PoolConfig{64, 3});
  for (unsigned i = 0; i < 12; i++) m.crush().add_osd(i, i / 3);
  for (std::uint32_t pg = 0; pg < 64; pg++) {
    const auto acting = m.acting(pg);
    ASSERT_EQ(acting.size(), 3u);
    EXPECT_EQ(m.primary(pg), acting[0]);
  }
}

TEST(Crush, SingleOsdDegenerateCase) {
  Crush c;
  c.add_osd(0, 0);
  auto acting = c.place(0, 42, 2);
  ASSERT_EQ(acting.size(), 1u);  // cannot satisfy size 2 with one OSD
  EXPECT_EQ(acting[0], 0u);
}

TEST(Crush, AllOsdsDownYieldsEmpty) {
  Crush c;
  c.add_osd(0, 0);
  c.add_osd(1, 1);
  c.set_up(0, false);
  c.set_up(1, false);
  EXPECT_TRUE(c.place(0, 1, 2).empty());
}

TEST(Crush, ZeroWeightExcluded) {
  Crush c;
  c.add_osd(0, 0, 0.0);
  c.add_osd(1, 1, 1.0);
  for (std::uint32_t pg = 0; pg < 64; pg++) {
    for (auto osd : c.place(0, pg, 1)) EXPECT_EQ(osd, 1u);
  }
}

TEST(ClusterMap, UpInSplitDownDegradesWithoutMove) {
  // Detected-membership semantics: down (up=false, in=true) shrinks the
  // acting set in place — no replacement, no data movement; only out
  // (in=false) re-places.
  ClusterMap m(ClusterMap::PoolConfig{64, 2});
  m.set_filter_down(true);
  for (unsigned i = 0; i < 8; i++) m.crush().add_osd(i, i / 2);
  // Find a PG that osd.3 serves.
  std::uint32_t pg = 0;
  std::vector<std::uint32_t> before;
  for (; pg < 64; pg++) {
    before = m.acting(pg);
    if (before.size() == 2 && (before[0] == 3 || before[1] == 3)) break;
  }
  ASSERT_LT(pg, 64u) << "osd.3 serves no PG?";

  m.crush().set_up_only(3, false);
  m.bump_epoch();
  const auto down = m.acting(pg);
  ASSERT_EQ(down.size(), 1u);  // shrunk, not re-placed
  EXPECT_EQ(down[0], before[0] == 3 ? before[1] : before[0]);

  m.crush().set_in(3, false);  // mark-out: now data moves
  m.bump_epoch();
  const auto out = m.acting(pg);
  ASSERT_EQ(out.size(), 2u);  // backfilled to full size
  EXPECT_EQ(std::count(out.begin(), out.end(), 3u), 0);

  m.crush().set_in(3, true);
  m.crush().set_up_only(3, true);
  m.bump_epoch();
  EXPECT_EQ(m.acting(pg), before);  // full recovery restores the mapping
}

TEST(ClusterMap, ActingCacheRapidEpochBumps) {
  // A burst of epoch bumps (the monitor publishing several deltas quickly)
  // must never serve a stale cached acting set, and bumps without topology
  // change must be stable.
  ClusterMap m(ClusterMap::PoolConfig{128, 2});
  m.set_filter_down(true);
  for (unsigned i = 0; i < 8; i++) m.crush().add_osd(i, i / 2);
  std::vector<std::vector<std::uint32_t>> baseline;
  for (std::uint32_t pg = 0; pg < 128; pg++) baseline.push_back(m.acting(pg));

  for (int round = 0; round < 4; round++) {
    m.bump_epoch();  // no topology change: identical answers
    for (std::uint32_t pg = 0; pg < 128; pg++) EXPECT_EQ(m.acting(pg), baseline[pg]);
  }

  // Rapid down/up flaps, one bump each: every epoch's answer reflects the
  // state at that epoch, never the previous one.
  for (int flap = 0; flap < 3; flap++) {
    m.crush().set_up_only(5, false);
    m.bump_epoch();
    for (std::uint32_t pg = 0; pg < 128; pg++) {
      const auto& a = m.acting(pg);
      EXPECT_EQ(std::count(a.begin(), a.end(), 5u), 0) << "stale cache at pg " << pg;
    }
    m.crush().set_up_only(5, true);
    m.bump_epoch();
    for (std::uint32_t pg = 0; pg < 128; pg++) EXPECT_EQ(m.acting(pg), baseline[pg]);
  }
}

TEST(ClusterMap, EcRemapPositionalStabilityRapidBumps) {
  // EC shard positions are not interchangeable: across a down -> bump ->
  // up -> bump flap sequence, survivors must keep their exact positions,
  // the down member's slot holes to kNoOsd, and the returning member
  // reclaims its original slot.
  ClusterMap::PoolConfig pool{32, 2};
  pool.scheme = ClusterMap::Scheme::kErasure;
  pool.ec_k = 4;
  pool.ec_m = 2;
  ClusterMap m(pool);
  m.set_filter_down(true);
  for (unsigned i = 0; i < 8; i++) m.crush().add_osd(i, i);  // 8 hosts

  std::vector<std::vector<std::uint32_t>> baseline;
  for (std::uint32_t pg = 0; pg < 32; pg++) {
    baseline.push_back(m.acting(pg));
    ASSERT_EQ(baseline.back().size(), 6u);
  }

  for (int flap = 0; flap < 3; flap++) {
    m.crush().set_up_only(2, false);
    m.bump_epoch();
    for (std::uint32_t pg = 0; pg < 32; pg++) {
      const auto& a = m.acting(pg);
      ASSERT_EQ(a.size(), 6u);
      for (std::size_t s = 0; s < 6; s++) {
        if (baseline[pg][s] == 2u) {
          EXPECT_EQ(a[s], ClusterMap::kNoOsd) << "pg " << pg << " shard " << s;
        } else {
          EXPECT_EQ(a[s], baseline[pg][s]) << "pg " << pg << " shard " << s;
        }
      }
    }
    m.bump_epoch();  // extra bump while still down: same answer, no drift
    for (std::uint32_t pg = 0; pg < 32; pg++) {
      for (std::size_t s = 0; s < 6; s++) {
        if (baseline[pg][s] != 2u) {
          EXPECT_EQ(m.acting(pg)[s], baseline[pg][s]);
        }
      }
    }
    m.crush().set_up_only(2, true);
    m.bump_epoch();
    for (std::uint32_t pg = 0; pg < 32; pg++) {
      EXPECT_EQ(m.acting(pg), baseline[pg]) << "returning shard lost its position, pg " << pg;
    }
  }
}

// FNV-1a over every PG's acting set (its size, then its members), so any
// change of placement, order or size changes the digest.
std::uint64_t acting_digest(ClusterMap& m) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::uint32_t pg = 0; pg < m.pool().pg_num; pg++) {
    const std::vector<std::uint32_t>& acting = m.acting(pg);
    mix(acting.size());
    for (std::uint32_t osd : acting) mix(osd);
  }
  return h;
}

ClusterMap make_map(ClusterMap::PoolConfig pool, unsigned nodes, unsigned osds_per_node) {
  ClusterMap m(pool);
  for (unsigned i = 0; i < nodes * osds_per_node; i++) m.crush().add_osd(i, i / osds_per_node);
  return m;
}

TEST(Crush, PlacementMatchesGoldenDigest) {
  // Captured from the hash-set implementation of Crush::place; placement
  // must never change silently. 16 nodes x 4 OSDs as in rr4k-16n.
  ClusterMap replicated = make_map(ClusterMap::PoolConfig{4096, 2}, 16, 4);
  EXPECT_EQ(acting_digest(replicated), 0x627aeac8feaf5cd1ull);

  ClusterMap::PoolConfig ec{4096, 2};
  ec.scheme = ClusterMap::Scheme::kErasure;
  ec.ec_k = 4;
  ec.ec_m = 2;
  ClusterMap erasure = make_map(ec, 16, 4);
  EXPECT_EQ(acting_digest(erasure), 0x2918ad87d9612b54ull);

  // Fewer hosts than shards: placement relaxes host separation.
  ClusterMap scarce = make_map(ec, 4, 4);
  EXPECT_EQ(acting_digest(scarce), 0x4536cf8744c4b2d7ull);
}

TEST(ClusterMap, SmallestPgNum) {
  ClusterMap m(ClusterMap::PoolConfig{1, 2});
  for (unsigned i = 0; i < 4; i++) m.crush().add_osd(i, i / 2);
  EXPECT_EQ(m.pg_of("anything"), 0u);
  EXPECT_EQ(m.acting(0).size(), 2u);
}

}  // namespace
}  // namespace afc::cluster
