// Tests for the FlashStore raw-device backend: the prefer-deferred routing
// rule, COW direct writes, deferred fold/flush retirement, the KV-commit
// durability gate, crash consistency through WAL replay, and a golden log
// of the deferred ledger's device writes and WAL retirements.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "store_harness.h"

namespace afc::store {
namespace {

struct FlashFixture : StoreRig<FlashStore> {
  explicit FlashFixture(FlashStore::Config cfg = {}) : StoreRig({Backend::kFlash, {}, cfg}) {}
};

TEST(FlashStore, AlignedLargeWriteGoesDirectAndReadsBack) {
  FlashFixture f;
  f.run([&]() -> sim::CoTask<void> {
    fs::Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(65536, 42));
    EXPECT_TRUE(co_await commit_txn(f.store, t));
    // Durable and applied at commit: on_commit fired, no apply pass follows.
    EXPECT_EQ(f.owner.commits, 1u);
    EXPECT_EQ(f.owner.applied, 0u);
    // 64K >= prefer_deferred_bytes: COW extents, nothing in the deferred
    // ledger, payload on the data device (no journal double-write).
    EXPECT_EQ(f.store.deferred_writes(), 0u);
    EXPECT_GE(f.store.data_bytes_written(), 65536u);
    auto r = co_await f.store.read(f.oid("a"), 0, 65536);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.length, 65536u);
    co_await f.store.drain();
    // The metadata WAL record retires once the KV batch lands.
    EXPECT_EQ(f.store.wal()->records_retained(), 0u);
  });
}

TEST(FlashStore, SmallAlignedWriteRidesDeferredWal) {
  FlashFixture f;
  f.run([&]() -> sim::CoTask<void> {
    fs::Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(4096, 1));
    const auto dev_before = f.ssd.bytes_written();
    co_await commit_txn(f.store, t);
    // 4K < prefer_deferred_bytes: the payload commits in the WAL record —
    // one NVRAM program in the ack path, no data-SSD program yet.
    EXPECT_EQ(f.store.deferred_writes(), 1u);
    EXPECT_EQ(f.ssd.bytes_written(), dev_before);
    EXPECT_GT(f.nvram.bytes_written(), 0u);
    EXPECT_GT(f.store.dirty_bytes(), 0u);
    co_await f.store.drain();
    EXPECT_EQ(f.store.dirty_bytes(), 0u);
    EXPECT_EQ(f.store.deferred_pending(), 0u);
  });
}

TEST(FlashStore, SubBlockUpdateFoldsIntoNextRewrite) {
  FlashFixture f;
  f.run([&]() -> sim::CoTask<void> {
    fs::Transaction t1;
    t1.write(f.oid("a"), 100, Payload::pattern(1000, 7));
    co_await commit_txn(f.store, t1);
    EXPECT_EQ(f.store.deferred_writes(), 1u);
    EXPECT_EQ(f.store.deferred_folds(), 0u);
    // A direct rewrite covering the dirtied block realizes the deferred
    // payload for free: the record folds instead of needing its own flush.
    fs::Transaction t2;
    t2.write(f.oid("a"), 0, Payload::pattern(65536, 8));
    co_await commit_txn(f.store, t2);
    EXPECT_GE(f.store.deferred_folds(), 1u);
    EXPECT_EQ(f.store.dirty_bytes(), 0u);
    co_await f.store.drain();
    EXPECT_EQ(f.store.deferred_pending(), 0u);
    EXPECT_EQ(f.store.wal()->records_retained(), 0u);
  });
}

TEST(FlashStore, DeferredBacklogFlushesPastThreshold) {
  FlashStore::Config cfg;
  cfg.deferred_flush_bytes = 8192;  // two 4K writes trip the flusher
  FlashFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 8; i++) {
      fs::Transaction t;
      t.write(f.oid("a"), std::uint64_t(i) * 4096, Payload::pattern(4096, i));
      co_await commit_txn(f.store, t);
    }
    co_await f.store.drain();
    EXPECT_EQ(f.store.deferred_writes(), 8u);
    // Distinct blocks, so nothing folds: the backlog drains through
    // in-place stream-hinted flushes.
    EXPECT_GE(f.store.deferred_flushes(), 1u);
    EXPECT_EQ(f.store.deferred_pending(), 0u);
    EXPECT_EQ(f.store.dirty_bytes(), 0u);
    EXPECT_GE(f.store.data_bytes_written(), 8u * 4096u);
  });
}

TEST(FlashStore, KvCommitGatesWalRetirement) {
  FlashStore::Config cfg;
  cfg.kv_commit_interval = 20 * kMillisecond;  // hold the KV batch open
  FlashFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    fs::Transaction t1;
    t1.write(f.oid("a"), 100, Payload::pattern(1000, 7));
    co_await commit_txn(f.store, t1);
    fs::Transaction t2;
    t2.write(f.oid("a"), 0, Payload::pattern(65536, 8));
    co_await commit_txn(f.store, t2);
    // Every covering block is durably rewritten (the fold counted), but the
    // onode batch has not committed: the record must stay replayable — a
    // crash now loses the in-flight KV metadata.
    EXPECT_GE(f.store.deferred_folds(), 1u);
    EXPECT_GE(f.store.deferred_pending(), 1u);
    EXPECT_GE(f.store.wal()->records_retained(), 1u);
    co_await f.store.drain();
    EXPECT_EQ(f.store.deferred_pending(), 0u);
    EXPECT_EQ(f.store.wal()->records_retained(), 0u);
  });
}

TEST(FlashStore, CrashDropsLedgerAndWalReplayRestores) {
  FlashStore::Config cfg;
  cfg.kv_commit_interval = 100 * kMillisecond;  // crash lands before KV commit
  FlashFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 4; i++) {
      fs::Transaction t;
      t.write(f.oid("a"), std::uint64_t(i) * 4096, Payload::pattern(4096, i));
      co_await commit_txn(f.store, t);
    }
    EXPECT_EQ(f.store.deferred_pending(), 4u);

    f.store.on_daemon_crash();
    // The RAM ledger is gone; the WAL still holds every record.
    EXPECT_EQ(f.store.deferred_pending(), 0u);
    EXPECT_EQ(f.store.dirty_bytes(), 0u);

    auto replay = f.store.wal()->restart();
    EXPECT_EQ(replay.records.size(), 4u);
    EXPECT_EQ(replay.torn_tails, 0u);
    EXPECT_EQ(replay.crc_failures, 0u);
    // The OSD's replay loop: decode each survivor, re-apply idempotently.
    for (auto& rec : replay.records) {
      auto tx = fs::Transaction::decode(rec.payload.data(), rec.payload.size());
      EXPECT_TRUE(tx.has_value());
      if (!tx.has_value()) continue;
      co_await f.store.apply_transaction(*tx, false);
      f.store.wal()->mark_applied(rec.seq);
    }
    EXPECT_EQ(f.store.wal()->records_retained(), 0u);
    auto r = co_await f.store.read(f.oid("a"), 0, 4 * 4096);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.length, 4u * 4096u);
    co_await f.store.drain();
  });
}

TEST(FlashStore, ReplayStopsAtFlippedRecord) {
  FlashStore::Config cfg;
  cfg.kv_commit_interval = 100 * kMillisecond;
  FlashFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 6; i++) {
      fs::Transaction t;
      t.write(f.oid("a"), std::uint64_t(i) * 4096, Payload::pattern(4096, i));
      co_await commit_txn(f.store, t);
    }
    f.store.on_daemon_crash();
    EXPECT_TRUE(f.store.wal()->corrupt_record(123));
    auto replay = f.store.wal()->restart();
    // The scan stops at the flipped record; it and everything after it is
    // truncated (those writes come back via peer backfill, not replay).
    EXPECT_EQ(replay.crc_failures, 1u);
    EXPECT_LT(replay.records.size(), 6u);
    EXPECT_EQ(replay.records.size() + 1 + replay.truncated, 6u);
    co_await f.store.drain();
  });
}

// The deferred ledger end to end: every data-device write (time, offset,
// length, stream hint) and every simulator step that retires WAL records
// (time, ring bytes freed, records retained, then the ledger's pending
// records, folds and flushes), in order. The scenario drives each ledger
// path: sub-block and small aligned writes on several objects, a direct
// rewrite that folds some of them, a backlog past deferred_flush_bytes
// with flush_iodepth rewrites in flight, a write that registers on a block
// while its rewrite is in flight, remove_object mid-backlog, then a crash
// with rewrites in flight, WAL replay, and writes after the restart. The
// KV sits on its own drive, so only the store's data writes are logged.
TEST(FlashStore, DeferredLedgerMatchesGoldenLog) {
  struct LoggedSsd : dev::SsdModel {
    LoggedSsd(sim::Simulation& sim, std::ostringstream& log)
        : SsdModel(sim, "data", Config{}), log(log) {}
    Time latency_time(dev::IoType type, std::uint64_t off, std::uint64_t len,
                      unsigned stream) override {
      if (type == dev::IoType::kWrite) {
        log << sim_.now() << " write " << off << " " << len << " s" << stream << "\n";
      }
      return SsdModel::latency_time(type, off, len, stream);
    }
    std::ostringstream& log;
  };
  sim::Simulation sim;
  sim::CpuPool cpu{sim, 8};
  dev::NvramModel nvram{sim, "nvram"};
  std::ostringstream log;
  LoggedSsd ssd{sim, log};
  dev::SsdModel kv_ssd{sim, "kv", dev::SsdModel::Config{}};
  kv::Db kvdb{sim, kv_ssd};
  StoreHarness owner{sim};
  FlashStore::Config cfg;
  cfg.deferred_flush_bytes = 16384;
  cfg.flush_iodepth = 4;
  auto owned = make_store(sim, cpu, nvram, ssd, kvdb, StoreConfig{Backend::kFlash, {}, cfg},
                          fs::Journal::Config{}, owner, owner.throttles());
  auto& store = static_cast<FlashStore&>(*owned);

  auto write = [&](const char* name, std::uint64_t off, std::uint64_t len,
                   std::uint64_t seed) -> sim::CoTask<void> {
    fs::Transaction t;
    t.write(fs::ObjectId{1, name}, off, Payload::pattern(len, seed));
    co_await commit_txn(store, t);
    co_await sim::delay(sim, 10 * kMicrosecond, "test.gap");
  };
  bool done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    co_await write("a", 100, 1000, 1);
    co_await write("b", 5000, 3000, 2);
    co_await write("c", 4000, 200, 3);  // straddles blocks 0 and 4096
    co_await write("a", 8192, 4096, 4);
    co_await write("b", 0, 4096, 5);
    co_await write("a", 0, 65536, 6);  // direct: folds a's two records
    co_await sim::delay(sim, 2 * kMillisecond, "test.gap");  // KV batches land
    for (std::uint64_t i = 0; i < 4; i++) co_await write("d", i * 4096, 4096, 10 + i);
    co_await write("b", 4200, 100, 20);  // b:4096's rewrite is in flight
    co_await write("d", 16384, 4096, 14);
    store.remove_object(fs::ObjectId{1, "d"});
    co_await sim::delay(sim, 2 * kMillisecond, "test.gap");
    for (std::uint64_t i = 0; i < 6; i++) co_await write("e", i * 4096, 4096, 30 + i);
    store.on_daemon_crash();
    co_await store.replay(false);
    co_await write("e", 0, 512, 40);  // its pre-crash rewrite may still be in flight
    co_await write("f", 4096, 4096, 41);
    co_await store.drain();
    done = true;
  });
  std::uint64_t in_use = 0;
  while (sim.step()) {
    const std::uint64_t now_in_use = store.wal()->bytes_in_use();
    if (now_in_use < in_use) {
      log << sim.now() << " retire " << in_use - now_in_use << " retained "
          << store.wal()->records_retained() << " | " << store.deferred_pending() << " "
          << store.deferred_folds() << " " << store.deferred_flushes() << "\n";
    }
    in_use = now_in_use;
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(store.wal()->records_retained(), 0u);
  EXPECT_EQ(store.deferred_pending(), 0u);
  EXPECT_EQ(store.dirty_bytes(), 0u);
  const std::string golden = R"(112898 write 24576 65536 s8
1018073 retire 7400 retained 5 | 3 2 0
2464866 write 4096 4096 s2
2464866 write 8192 4096 s2
2464866 write 12288 4096 s2
2464866 write 20480 4096 s2
2556703 retire 3768 retained 10 | 8 7 1
2580377 retire 968 retained 8 | 7 7 2
2592214 retire 4864 retained 6 | 6 7 3
3423458 retire 24320 retained 2 | 1 7 3
4629709 write 4096 4096 s2
4629709 write 0 4096 s2
4629709 write 16384 4096 s2
4629709 write 90112 4096 s2
4721546 write 4096 4096 s2
4813383 retire 868 retained 6 | 0 7 3
4815283 write 106496 4096 s2
4907120 retire 4864 retained 5 | 0 7 3
4909020 write 0 4096 s2
5000857 retire 4864 retained 4 | 0 7 3
5002757 write 16384 4096 s2
5094594 retire 4864 retained 3 | 0 7 3
5096494 write 90112 4096 s2
5188331 retire 4864 retained 2 | 0 7 3
5190231 write 94208 4096 s2
5282068 retire 4864 retained 1 | 0 7 3
5283968 write 98304 4096 s2
5375805 retire 3584 retained 0 | 0 7 3
5559647 write 106496 4096 s2
5559647 write 102400 4096 s8
5651484 retire 1280 retained 1 | 1 7 4
5663321 retire 4864 retained 0 | 0 7 5
)";
  EXPECT_EQ(log.str(), golden);
}

}  // namespace
}  // namespace afc::store
