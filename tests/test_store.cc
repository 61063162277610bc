// Tests for the FlashStore raw-device backend: the prefer-deferred routing
// rule, COW direct writes, deferred fold/flush retirement, the KV-commit
// durability gate, and crash consistency through WAL replay.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace afc::store
