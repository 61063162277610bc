// Tests for the device models: channel queueing, service-time structure,
// clean vs sustained SSD behaviour, mixed read/write interference, GC
// stalls, bandwidth aggregation.

#include <gtest/gtest.h>

#include "device/nvram.h"
#include "device/ssd.h"
#include "sim/task.h"

namespace afc::dev {
namespace {

struct Driver {
  sim::Simulation sim;

  // Issue `count` I/Os of `len` with `parallel` outstanding; returns makespan.
  Time run_ios(Device& dev, IoType type, std::uint64_t len, int count, int parallel) {
    int remaining = count;
    for (int p = 0; p < parallel; p++) {
      sim::spawn_fn([&dev, &remaining, type, len, this]() -> sim::CoTask<void> {
        std::uint64_t off = 0;
        while (remaining > 0) {
          remaining--;
          co_await dev.submit(type, off, len);
          off += len;  // sequential per worker
        }
      });
    }
    sim.run();
    return sim.now();
  }
};

TEST(SsdModel, ThroughputScalesWithQueueDepthUntilChannels) {
  SsdModel::Config cfg;
  cfg.drives = 1;
  cfg.channels_per_drive = 4;
  Driver d1, d8;
  SsdModel ssd1(d1.sim, "a", cfg);
  SsdModel ssd8(d8.sim, "b", cfg);
  const Time t1 = d1.run_ios(ssd1, IoType::kRead, 4096, 400, 1);
  const Time t8 = d8.run_ios(ssd8, IoType::kRead, 4096, 400, 8);
  // 4 channels => ~4x speedup from parallelism, then it flattens.
  EXPECT_GT(double(t1) / double(t8), 3.0);
  EXPECT_LT(double(t1) / double(t8), 5.0);
}

TEST(SsdModel, SustainedStateSlowsSmallWrites) {
  SsdModel::Config cfg;
  cfg.gc_interval_bytes = 256 * 1024;  // make GC stalls visible at test scale
  Driver dc, ds;
  SsdModel clean(dc.sim, "clean", cfg);
  cfg.sustained = true;
  SsdModel sust(ds.sim, "sust", cfg);
  const Time tc = dc.run_ios(clean, IoType::kWrite, 4096, 500, 4);
  const Time tsu = ds.run_ios(sust, IoType::kWrite, 4096, 500, 4);
  EXPECT_GT(double(tsu) / double(tc), 2.0);
  EXPECT_GT(sust.gc_stalls(), 0u);
  EXPECT_EQ(clean.gc_stalls(), 0u);
}

TEST(SsdModel, DaemonRestartResetsGcProgressNotWear) {
  SsdModel::Config cfg;
  cfg.sustained = true;
  cfg.gc_interval_bytes = 1 * kMiB;
  cfg.stream_count = 0;  // unhinted: every byte counts toward the interval
  Driver d;
  SsdModel ssd(d.sim, "s", cfg);
  // Just under one GC interval: progress accrues, no pause yet.
  d.run_ios(ssd, IoType::kWrite, 64 * 1024, 15, 1);  // 960 KiB
  EXPECT_EQ(ssd.gc_stalls(), 0u);
  EXPECT_GT(ssd.bytes_since_gc(), 0u);

  // The daemon crashes and comes back: the FTL idled through the downtime
  // and caught up on erase work, so partial progress toward the next pause
  // must not leak into the revived daemon's first writes — but cumulative
  // wear (gc_stalls_) is physical and survives.
  ssd.note_daemon_restart();
  EXPECT_EQ(ssd.bytes_since_gc(), 0u);
  EXPECT_EQ(ssd.gc_stalls(), 0u);

  // A fresh interval of writes lands with no stall (without the reset,
  // 960 KiB + 960 KiB would have crossed 1 MiB mid-batch)...
  d.run_ios(ssd, IoType::kWrite, 64 * 1024, 15, 1);
  EXPECT_EQ(ssd.gc_stalls(), 0u);
  // ...and the pause then arrives on schedule, not early.
  d.run_ios(ssd, IoType::kWrite, 64 * 1024, 2, 1);
  EXPECT_EQ(ssd.gc_stalls(), 1u);
}

TEST(SsdModel, SustainedPenaltyMilderForLargeWrites) {
  auto ratio_for = [](std::uint64_t len, int count) {
    SsdModel::Config cfg;
    Driver dc, ds;
    SsdModel clean(dc.sim, "c", cfg);
    cfg.sustained = true;
    SsdModel sust(ds.sim, "s", cfg);
    const Time tc = dc.run_ios(clean, IoType::kWrite, len, count, 4);
    const Time tsu = ds.run_ios(sust, IoType::kWrite, len, count, 4);
    return double(tsu) / double(tc);
  };
  EXPECT_GT(ratio_for(4096, 400), ratio_for(1 * kMiB, 40) + 0.5);
}

TEST(SsdModel, MixedReadsPayPenaltyBehindWrites) {
  // Reads issued while writes are in flight must be slower than reads on an
  // idle device — the FIOS effect the light-weight transaction removes.
  SsdModel::Config cfg;
  cfg.drives = 2;
  Driver pure;
  SsdModel dev_pure(pure.sim, "pure", cfg);
  const Time t_pure = pure.run_ios(dev_pure, IoType::kRead, 4096, 200, 2);

  Driver mixed;
  SsdModel dev_mixed(mixed.sim, "mixed", cfg);
  // Continuous write background.
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 2000; i++) co_await dev_mixed.submit(IoType::kWrite, 0, 4096);
  });
  const Time t_mixed = mixed.run_ios(dev_mixed, IoType::kRead, 4096, 200, 2);
  EXPECT_GT(double(t_mixed), double(t_pure) * 1.5);
}

TEST(SsdModel, BandwidthAggregatesNotMultiplies) {
  // N concurrent large transfers must sum to the configured aggregate
  // bandwidth (channels share the bus; regression test for the per-channel
  // bandwidth bug).
  SsdModel::Config cfg;
  cfg.drives = 1;
  cfg.channels_per_drive = 4;
  cfg.write_bw_per_drive = 400 * kMiB;
  Driver d;
  SsdModel ssd(d.sim, "bw", cfg);
  const std::uint64_t total_bytes = 400 * kMiB;  // should take ~1s
  d.run_ios(ssd, IoType::kWrite, 1 * kMiB, int(total_bytes / kMiB), 4);
  EXPECT_NEAR(to_s(d.sim.now()), 1.0, 0.25);
}

TEST(SsdModel, RaidZeroWidensBandwidthAndChannels) {
  SsdModel::Config one;
  one.drives = 1;
  SsdModel::Config three = one;
  three.drives = 3;
  Driver d1, d3;
  SsdModel s1(d1.sim, "one", one);
  SsdModel s3(d3.sim, "three", three);
  EXPECT_EQ(s3.channels(), 3 * s1.channels());
  const Time t1 = d1.run_ios(s1, IoType::kWrite, 1 * kMiB, 120, 12);
  const Time t3 = d3.run_ios(s3, IoType::kWrite, 1 * kMiB, 120, 12);
  EXPECT_NEAR(double(t1) / double(t3), 3.0, 0.6);
}

TEST(SsdModel, LatencyHistogramIncludesQueueing) {
  SsdModel::Config cfg;
  cfg.drives = 1;
  cfg.channels_per_drive = 1;
  Driver d;
  SsdModel ssd(d.sim, "q", cfg);
  d.run_ios(ssd, IoType::kRead, 4096, 64, 16);  // deep queue on one channel
  EXPECT_EQ(ssd.reads(), 64u);
  // With 16 outstanding on one channel, p99 latency >> service time.
  EXPECT_GT(ssd.read_latency().percentile(0.99), 10 * ssd.read_latency().min());
}

TEST(NvramModel, OrdersOfMagnitudeFasterThanSsdSmallWrites) {
  Driver dn, ds;
  NvramModel nv(dn.sim, "nv");
  SsdModel::Config scfg;
  scfg.sustained = true;
  SsdModel ssd(ds.sim, "ssd", scfg);
  const Time tn = dn.run_ios(nv, IoType::kWrite, 4096, 400, 4);
  const Time ts = ds.run_ios(ssd, IoType::kWrite, 4096, 400, 4);
  EXPECT_GT(double(ts) / double(tn), 5.0);
}

TEST(Device, UtilizationBounded) {
  Driver d;
  SsdModel ssd(d.sim, "u", SsdModel::Config{});
  d.run_ios(ssd, IoType::kWrite, 4096, 200, 8);
  EXPECT_GT(ssd.utilization(), 0.1);
  EXPECT_LE(ssd.utilization(), 1.0 + 1e-9);
}

TEST(Device, StatsSeparateReadsAndWrites) {
  Driver d;
  NvramModel nv(d.sim, "nv");
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    co_await nv.submit(IoType::kWrite, 0, 100);
    co_await nv.submit(IoType::kWrite, 0, 200);
    co_await nv.submit(IoType::kRead, 0, 50);
  });
  d.sim.run();
  EXPECT_EQ(nv.writes(), 2u);
  EXPECT_EQ(nv.reads(), 1u);
  EXPECT_EQ(nv.bytes_written(), 300u);
  EXPECT_EQ(nv.bytes_read(), 50u);
  EXPECT_EQ(nv.inflight_reads(), 0u);
  EXPECT_EQ(nv.inflight_writes(), 0u);
}

}  // namespace
}  // namespace afc::dev
