// Tests for the erasure-coding layer: GF(256) arithmetic against
// hand-computed vectors, the Reed–Solomon codec (any-k reconstruction),
// shard naming/layout, the cluster map's stable positional remap, and the
// full EC(4+2) pool end to end — healthy round-trips, degraded reads under
// shard loss, the k+1 ack floor, rebuild-by-decode after crash/restart,
// and the two scrub phases (per-shard CRC, stripe parity consistency).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "afceph.h"
#include "ec/codec.h"
#include "ec/gf256.h"
#include "ec/layout.h"

namespace afc {
namespace {

// ---------------------------------------------------------------------------
// GF(256), polynomial 0x11D

TEST(Gf256, HandComputedVectors) {
  EXPECT_EQ(ec::gf_mul(0, 0x5A), 0);
  EXPECT_EQ(ec::gf_mul(1, 0x5A), 0x5A);
  // x * x^7 = x^8 -> reduced by x^8+x^4+x^3+x^2+1: 0x100 ^ 0x11D = 0x1D.
  EXPECT_EQ(ec::gf_mul(2, 0x80), 0x1D);
  // 2 * 0x8E = 0x11C; high bit set -> ^0x11D = 1, so inv(2) = 0x8E.
  EXPECT_EQ(ec::gf_mul(2, 0x8E), 1);
  EXPECT_EQ(ec::gf_inv(2), 0x8E);
  EXPECT_EQ(ec::gf_inv(1), 1);
  EXPECT_EQ(ec::gf_div(0x1D, 0x80), 2);
  for (unsigned a = 1; a < 256; a++) {
    EXPECT_EQ(ec::gf_mul(std::uint8_t(a), ec::gf_inv(std::uint8_t(a))), 1) << a;
  }
  // Commutativity + distributivity probes.
  EXPECT_EQ(ec::gf_mul(0x53, 0xCA), ec::gf_mul(0xCA, 0x53));
  const std::uint8_t a = 0x57, b = 0x13, c = 0xA9;
  EXPECT_EQ(ec::gf_mul(a, b ^ c), std::uint8_t(ec::gf_mul(a, b) ^ ec::gf_mul(a, c)));
}

// ---------------------------------------------------------------------------
// Codec

std::vector<std::vector<std::uint8_t>> test_data(unsigned k, std::size_t len) {
  std::vector<std::vector<std::uint8_t>> data(k);
  for (unsigned j = 0; j < k; j++) {
    data[j].resize(len);
    for (std::size_t i = 0; i < len; i++) data[j][i] = std::uint8_t(j * 37 + i * 11 + 5);
  }
  return data;
}

TEST(Codec, ParityMatrixIsCauchy) {
  ec::Codec codec(4, 2);
  // P[i][j] = inv((k+i) ^ j): multiplying back by the point must give 1.
  for (unsigned i = 0; i < 2; i++) {
    for (unsigned j = 0; j < 4; j++) {
      EXPECT_EQ(ec::gf_mul(codec.parity_coeff(i, j), std::uint8_t((4 + i) ^ j)), 1);
    }
  }
}

TEST(Codec, AnyKOfKPlusMReconstructsEverything) {
  const unsigned k = 4, m = 2;
  ec::Codec codec(k, m);
  const auto data = test_data(k, 16);
  const auto parity = codec.encode(data);
  ASSERT_EQ(parity.size(), m);

  std::vector<std::vector<std::uint8_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());

  // Every size-k subset of the 6 shards must decode to the original data.
  int subsets = 0;
  for (unsigned mask = 0; mask < (1u << (k + m)); mask++) {
    if (__builtin_popcount(mask) != int(k)) continue;
    subsets++;
    std::vector<unsigned> present;
    std::vector<std::vector<std::uint8_t>> chunks;
    for (unsigned s = 0; s < k + m; s++) {
      if (mask & (1u << s)) {
        present.push_back(s);
        chunks.push_back(shards[s]);
      }
    }
    const auto decoded = codec.decode(present, chunks);
    ASSERT_TRUE(decoded.has_value()) << "mask " << mask;
    EXPECT_EQ(*decoded, data) << "mask " << mask;
    // And every absent shard — data or parity — reconstructs individually.
    for (unsigned s = 0; s < k + m; s++) {
      if (mask & (1u << s)) continue;
      const auto shard = codec.reconstruct_shard(s, present, chunks);
      ASSERT_TRUE(shard.has_value());
      EXPECT_EQ(*shard, shards[s]) << "shard " << s << " mask " << mask;
    }
  }
  EXPECT_EQ(subsets, 15);  // C(6,4)
}

TEST(Codec, RejectsInsufficientOrMismatchedInput) {
  ec::Codec codec(4, 2);
  const auto data = test_data(4, 8);
  const auto parity = codec.encode(data);
  EXPECT_FALSE(codec.decode({0, 1, 2}, {data[0], data[1], data[2]}).has_value());
  auto short_chunk = data[3];
  short_chunk.pop_back();
  EXPECT_FALSE(codec.decode({0, 1, 2, 3}, {data[0], data[1], data[2], short_chunk})
                   .has_value());
}

// ---------------------------------------------------------------------------
// Layout: shard naming and chunk math

TEST(EcLayout, ShardNamesRoundTripAndChunkMath) {
  const fs::ObjectId base{7, "rbd_data.3.00000000004a"};
  const fs::ObjectId s2 = ec::shard_oid(base, 2);
  EXPECT_EQ(s2.pg, 7u);
  EXPECT_EQ(s2.name(), "rbd_data.3.00000000004a.s2");
  const auto parsed = ec::parse_shard(s2.name());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, base.name());
  EXPECT_EQ(parsed->shard, 2u);
  EXPECT_FALSE(ec::parse_shard("plain_name").has_value());
  EXPECT_FALSE(ec::parse_shard("x.s").has_value());
  EXPECT_FALSE(ec::parse_shard("x.sA").has_value());

  EXPECT_EQ(ec::chunk_len(4096, 4), 1024u);
  EXPECT_EQ(ec::chunk_len(4097, 4), 1025u);  // ceil
  EXPECT_EQ(ec::shard_offset(8192, 4), 2048u);
}

// ---------------------------------------------------------------------------
// ClusterMap: EC acting sets and the stable positional remap

TEST(ClusterMapEc, ActingIsKPlusMDistinctAndRemapIsStable) {
  cluster::ClusterMap::PoolConfig pool;
  pool.pg_num = 16;
  pool.scheme = cluster::ClusterMap::Scheme::kErasure;
  pool.ec_k = 4;
  pool.ec_m = 2;
  cluster::ClusterMap cmap(pool);
  for (std::uint32_t i = 0; i < 6; i++) cmap.crush().add_osd(i, i);

  EXPECT_TRUE(cmap.erasure());
  EXPECT_EQ(cmap.pool_size(), 6u);
  EXPECT_EQ(cmap.ack_floor(), 5u);  // min_size 0 -> k+1

  const auto before = cmap.acting(3);
  ASSERT_EQ(before.size(), 6u);
  std::set<std::uint32_t> distinct(before.begin(), before.end());
  EXPECT_EQ(distinct.size(), 6u);
  EXPECT_EQ(distinct.count(cluster::ClusterMap::kNoOsd), 0u);

  // Lose one OSD: its position becomes a hole (no spare exists) and every
  // survivor keeps its slot — shards must not shuffle between epochs.
  const std::uint32_t victim = before[2];
  cmap.crush().set_up(victim, false);
  cmap.bump_epoch();
  const auto degraded = cmap.acting(3);
  ASSERT_EQ(degraded.size(), 6u);
  for (unsigned p = 0; p < 6; p++) {
    if (p == 2) {
      EXPECT_EQ(degraded[p], cluster::ClusterMap::kNoOsd);
    } else {
      EXPECT_EQ(degraded[p], before[p]) << "position " << p;
    }
  }

  // It returns: the vacancy is refilled, everyone else still pinned.
  cmap.crush().set_up(victim, true);
  cmap.bump_epoch();
  EXPECT_EQ(cmap.acting(3), before);
}

// ---------------------------------------------------------------------------
// End-to-end EC(4+2) pool

core::ClusterConfig ec_cluster(std::uint64_t seed, unsigned nodes = 6) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = nodes;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 32;
  cfg.ec_pool = true;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  cfg.sustained = false;
  cfg.image_size = 512 * kMiB;
  cfg.seed = seed;
  cfg.osd.rep_timeout = 20 * kMillisecond;  // shard fan-out watchdog
  cfg.osd.rep_retries = 1;
  return cfg;
}

std::uint64_t sum_counter(core::ClusterSim& cluster, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    total += cluster.osd(o).counters().get(name);
  }
  return total;
}

/// 24 object-aligned offsets spread across the image so many PGs see a
/// stripe; deterministic pattern payloads keyed off the offset.
std::vector<std::uint64_t> spread_offsets() {
  std::vector<std::uint64_t> offs;
  for (std::uint64_t i = 0; i < 24; i++) offs.push_back(i * 4 * kMiB + (i % 4) * 4096);
  return offs;
}

Payload pattern_for(std::uint64_t off) { return Payload::pattern(4096, off * 2654435761ull + 1); }

TEST(EcPool, HealthyWriteReadRoundTrip) {
  core::ClusterSim cluster(ec_cluster(42));
  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    for (std::uint64_t off : spread_offsets()) {
      auto r = co_await cluster.vm(0).read_once(off, 4096);
      EXPECT_TRUE(r.ok);
      EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(pattern_for(off)));
    }
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);
  // Healthy cluster: nothing was reconstructed, acks never went degraded.
  EXPECT_EQ(sum_counter(cluster, "osd.ec_reconstruct_reads"), 0u);
  EXPECT_EQ(sum_counter(cluster, "osd.acks_below_min_size"), 0u);
}

TEST(EcPool, DegradedReadReconstructsFromSurvivors) {
  core::ClusterSim cluster(ec_cluster(42));
  fault::FaultPlan plan;
  plan.crash(500 * kMillisecond, 1);  // permanent: no spare, position holes
  cluster.install_faults(plan);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    co_await sim::delay(cluster.simulation(), 600 * kMillisecond, "test.wait_crash");
    // Every byte is still readable from the 5 survivors (any k=4 suffice).
    for (std::uint64_t off : spread_offsets()) {
      auto r = co_await cluster.vm(0).read_once(off, 4096);
      EXPECT_TRUE(r.ok) << "off " << off;
      EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(pattern_for(off)));
    }
    // Writes still ack: 5 durable shards meet the k+1=5 floor.
    EXPECT_TRUE(co_await cluster.vm(0).write_once(100 * kMiB, pattern_for(100 * kMiB)));
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);
  EXPECT_GT(sum_counter(cluster, "osd.ec_reconstruct_reads"), 0u);
  EXPECT_EQ(sum_counter(cluster, "osd.acks_below_min_size"), 0u);
}

TEST(EcPool, WritesFailBelowAckFloorButReadsSurviveAtK) {
  core::ClusterSim cluster(ec_cluster(42));
  fault::FaultPlan plan;
  plan.crash(500 * kMillisecond, 1);
  plan.crash(500 * kMillisecond, 3);  // two losses: 4 = k survivors remain
  cluster.install_faults(plan);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    co_await sim::delay(cluster.simulation(), 600 * kMillisecond, "test.wait_crashes");
    // Reads: exactly k shards left -> still every byte, via decode.
    for (std::uint64_t off : spread_offsets()) {
      auto r = co_await cluster.vm(0).read_once(off, 4096);
      EXPECT_TRUE(r.ok) << "off " << off;
      EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(pattern_for(off)));
    }
    // Writes: 4 durable shards < floor 5 -> deterministic failure, no ack.
    EXPECT_FALSE(co_await cluster.vm(0).write_once(100 * kMiB, pattern_for(100 * kMiB)));
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);
  EXPECT_GT(sum_counter(cluster, "osd.ec_reconstruct_reads"), 0u);
  EXPECT_EQ(sum_counter(cluster, "osd.acks_below_min_size"), 0u);
}

TEST(EcPool, CrashRestartRebuildsShardsByDecode) {
  core::ClusterSim cluster(ec_cluster(42));
  fault::FaultPlan plan;
  plan.crash_restart(500 * kMillisecond, 2, 200 * kMillisecond);
  cluster.install_faults(plan);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    auto& sim = cluster.simulation();
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    // Write more while OSD 2 is down: its shards of these stripes are
    // missed and must come back by decode, not journal replay.
    co_await sim::delay(sim, 550 * kMillisecond, "test.wait_crash");
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off + 8192, pattern_for(off + 8192)));
    }
    done = true;
  });
  cluster.simulation().run();  // drains restart, replay, and all rebuilds
  ASSERT_TRUE(done);
  EXPECT_GT(sum_counter(cluster, "osd.ec_shards_rebuilt"), 0u);

  // After rebuild the pool is fully consistent again.
  bool scrubbed = false;
  sim::spawn_fn([&cluster, &scrubbed]() -> sim::CoTask<void> {
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_GT(verify.objects_scrubbed, 0u);
    EXPECT_EQ(verify.inconsistent, 0u);
    EXPECT_EQ(verify.missing, 0u);
    scrubbed = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(scrubbed);
}

TEST(EcPool, SpareOsdBackfillsLostPositionByDecode) {
  // 8 OSDs, 6-wide stripes: when one holder dies for good, CRUSH remaps
  // its position to a spare, which must backfill the shard by decode.
  core::ClusterSim cluster(ec_cluster(42, /*nodes=*/8));
  fault::FaultPlan plan;
  plan.crash(500 * kMillisecond, 1);
  cluster.install_faults(plan);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    done = true;
  });
  cluster.simulation().run();  // crash fires after the writes, then rebuilds drain
  ASSERT_TRUE(done);
  EXPECT_GT(sum_counter(cluster, "osd.ec_shards_rebuilt"), 0u);

  bool scrubbed = false;
  sim::spawn_fn([&cluster, &scrubbed]() -> sim::CoTask<void> {
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_EQ(verify.inconsistent, 0u);
    EXPECT_EQ(verify.missing, 0u);
    scrubbed = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(scrubbed);
}

TEST(EcPool, ScrubRepairsFlippedShardsByDecode) {
  core::ClusterSim cluster(ec_cluster(42));
  // Flip a data-shard byte on one OSD and a parity-shard byte on another,
  // after all traffic has drained (the events fire at 1s).
  fault::FaultPlan plan;
  plan.bit_flip_data(1 * kSecond, 0);
  plan.bit_flip_parity(1 * kSecond, 4);
  fault::FaultInjector& inj = cluster.install_faults(plan);

  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    for (std::uint64_t off : spread_offsets()) {
      EXPECT_TRUE(co_await cluster.vm(0).write_once(off, pattern_for(off)));
    }
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(inj.counters().get("fault.bit_flip"), 2u);
  EXPECT_EQ(inj.counters().get("fault.bit_flip_noop"), 0u);

  bool scrubbed = false;
  sim::spawn_fn([&cluster, &scrubbed]() -> sim::CoTask<void> {
    auto detect = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_GT(detect.inconsistent, 0u);
    auto repair = co_await cluster.deep_scrub(/*repair=*/true);
    EXPECT_GT(repair.repaired, 0u);
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_EQ(verify.inconsistent, 0u);
    EXPECT_EQ(verify.missing, 0u);

    // Repaired stripes read back the original content.
    for (std::uint64_t off : spread_offsets()) {
      auto r = co_await cluster.vm(0).read_once(off, 4096);
      EXPECT_TRUE(r.ok);
      EXPECT_TRUE(Payload::bytes(std::move(r.data)).content_equals(pattern_for(off)));
    }
    scrubbed = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(scrubbed);
  EXPECT_GT(sum_counter(cluster, "osd.scrub_objects_repaired"), 0u);
}

TEST(EcPool, ScrubDetectsAndRepairsParityInconsistency) {
  // A torn stripe leaves shards that each pass their own CRC but violate
  // the parity equation. Fabricate one: write a stripe through the client,
  // then overwrite one parity shard with CRC-valid wrong bytes directly.
  core::ClusterSim cluster(ec_cluster(42));
  bool done = false;
  sim::spawn_fn([&cluster, &done]() -> sim::CoTask<void> {
    EXPECT_TRUE(co_await cluster.vm(0).write_once(0, pattern_for(0)));
    done = true;
  });
  cluster.simulation().run();
  ASSERT_TRUE(done);

  // Find a written parity shard (position k=4) and rewrite its extent.
  bool poisoned = false;
  for (std::uint32_t pg = 0; pg < cluster.config().pg_num && !poisoned; pg++) {
    const auto& acting = cluster.map().acting(pg);
    const std::uint32_t holder = acting[4];
    for (const auto& oid : cluster.osd(holder).store().objects_in_pg(pg)) {
      auto sn = ec::parse_shard(oid.name());
      if (!sn.has_value() || sn->shard != 4) continue;
      auto& store = cluster.osd(holder).store();
      const auto exp = store.export_object(oid);
      ASSERT_FALSE(exp.extents.empty());
      const std::uint64_t off = exp.extents[0].first;
      const std::uint64_t len = exp.extents[0].second.size();
      bool written = false;
      sim::spawn_fn([&store, &oid, off, len, &written]() -> sim::CoTask<void> {
        fs::Transaction tx;
        tx.write(oid, off, Payload::pattern(len, 0xBADBADull));
        co_await store.apply_transaction(tx, /*lightweight=*/false);
        written = true;
      });
      cluster.simulation().run();
      ASSERT_TRUE(written);
      poisoned = true;
      break;
    }
  }
  ASSERT_TRUE(poisoned);

  bool scrubbed = false;
  sim::spawn_fn([&cluster, &scrubbed]() -> sim::CoTask<void> {
    // Phase 1 (per-shard CRC) is clean; only the stripe equation fails.
    auto detect = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_GT(detect.inconsistent, 0u);
    EXPECT_EQ(detect.missing, 0u);
    auto repair = co_await cluster.deep_scrub(/*repair=*/true);
    EXPECT_GT(repair.repaired, 0u);
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    EXPECT_EQ(verify.inconsistent, 0u);
    scrubbed = true;
  });
  cluster.simulation().run();
  EXPECT_TRUE(scrubbed);
  EXPECT_GT(sum_counter(cluster, "osd.ec_parity_mismatch"), 0u);
}

TEST(EcPool, SameSeedRunsAreIdentical) {
  // Drive the VMs directly (the chaos/bench pattern) so the stats sink
  // outlives the post-deadline drain of retries, replay, and rebuilds.
  auto one_run = [] {
    core::ClusterConfig cfg = ec_cluster(7);
    cfg.client_op_timeout = 100 * kMillisecond;
    core::ClusterSim cluster(cfg);
    fault::FaultPlan plan;
    plan.crash_restart(100 * kMillisecond, 1, 80 * kMillisecond);
    cluster.install_faults(plan);
    auto spec = client::WorkloadSpec::rand_write(4096, 4);
    spec.warmup = 20 * kMillisecond;
    spec.runtime = 150 * kMillisecond;
    client::RunStats stats;
    stats.window_start = spec.warmup;
    stats.window_end = spec.warmup + spec.runtime;
    for (std::size_t v = 0; v < cluster.vm_count(); v++) {
      cluster.vm(v).start(spec, stats.window_end, &stats);
    }
    cluster.simulation().run_until(stats.window_end);
    cluster.simulation().run();
    std::uint64_t begun = 0, resolved = 0;
    for (std::size_t v = 0; v < cluster.vm_count(); v++) {
      begun += cluster.vm(v).ops_begun();
      resolved += cluster.vm(v).ops_resolved();
    }
    EXPECT_EQ(begun, resolved);
    return std::tuple{cluster.simulation().executed_events(), begun, resolved,
                      sum_counter(cluster, "osd.ec_shards_rebuilt")};
  };
  EXPECT_EQ(one_run(), one_run());
}

TEST(EcPool, ReplicatedDefaultKeepsEcMachineryCold) {
  // EC compiled in but unconfigured: a replicated run must never touch it.
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 32;
  cfg.replication = 2;
  cfg.sustained = false;
  cfg.image_size = 512 * kMiB;
  cfg.seed = 42;
  core::ClusterSim cluster(cfg);
  EXPECT_FALSE(cluster.map().erasure());

  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 20 * kMillisecond;
  spec.runtime = 100 * kMillisecond;
  client::RunStats stats;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end);
  cluster.simulation().run();
  core::RunResult r;
  cluster.collect_osd_stats(r);
  EXPECT_EQ(r.ec_reconstruct_reads, 0u);
  EXPECT_EQ(r.ec_shards_rebuilt, 0u);
  EXPECT_EQ(r.ec_parity_mismatch, 0u);
  EXPECT_EQ(sum_counter(cluster, "osd.ec_reconstruct_reads"), 0u);
}

}  // namespace
}  // namespace afc
