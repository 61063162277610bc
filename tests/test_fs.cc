// Tests for the filestore substrate: transactions, journal ring + batching,
// writeback backpressure and the community-vs-light apply cost split; and
// the object content and lookup path both store backends share (extent-map
// correctness, xattrs, page cache, implicit population).

#include <gtest/gtest.h>

#include <compare>
#include <list>
#include <string>
#include <utility>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fs/journal.h"
#include "fs/pagecache.h"
#include "store_harness.h"

namespace afc::fs {
namespace {

struct StoreFixture : store::StoreRig<FileStore> {
  explicit StoreFixture(FileStore::Config cfg = {})
      : StoreRig({store::Backend::kFile, cfg, {}}) {}
};

TEST(Transaction, EncodedBytesCoverOps) {
  Transaction t;
  ObjectId oid{1, "obj"};
  t.write(oid, 0, Payload::pattern(4096, 1));
  const auto with_data = t.encoded_bytes();
  EXPECT_GT(with_data, 4096u);
  t.omap_setkeys(oid, {{"pglog.1", kv::Value::virt(180)}});
  t.setattrs(oid, {{"_", kv::Value::virt(250)}});
  t.set_alloc_hint(oid);
  EXPECT_GT(t.encoded_bytes(), with_data + 180 + 250);
  EXPECT_EQ(t.op_count(), 4u);
}

TEST(FileStore, QueuedTransactionJournalsThenApplies) {
  StoreFixture f;
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(4096, 3));
    EXPECT_TRUE(co_await store::commit_txn(f.store, t));
    // Durable in the store's one ring and committed; the apply is queued
    // behind it, so the record stays retained until the op thread runs.
    EXPECT_NE(f.store.wal(), nullptr);
    EXPECT_EQ(f.store.wal()->entries_written(), 1u);
    EXPECT_EQ(f.owner.commits, 1u);
    EXPECT_EQ(f.owner.applied, 0u);
    co_await f.store.wait_object_readable(f.oid("a"));
    EXPECT_EQ(f.owner.applied, 1u);
    EXPECT_EQ(f.store.wal()->records_retained(), 0u);
    auto r = co_await f.store.read(f.oid("a"), 0, 4096);
    EXPECT_TRUE(r.found);
  });
}

TEST(FileStore, OmapOpsGoThroughKv) {
  StoreFixture f;
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.omap_setkeys(f.oid("a"), {{"pglog.0001", kv::Value::real("entry1")},
                                {"pglog.0002", kv::Value::real("entry2")}});
    co_await f.store.apply_transaction(t, true);
    auto v = co_await f.kvdb.get("pglog.0001");
    EXPECT_TRUE(v.has_value());
    if (v) {
      EXPECT_EQ(v->data(), "entry1");
    }

    Transaction trim;
    trim.omap_rmkeyrange(f.oid("a"), "pglog.0000", "pglog.0002");
    co_await f.store.apply_transaction(trim, true);
    EXPECT_FALSE((co_await f.kvdb.get("pglog.0001")).has_value());
    EXPECT_TRUE((co_await f.kvdb.get("pglog.0002")).has_value());
  });
}

TEST(FileStore, LightTransactionsCostFewerSyscalls) {
  StoreFixture heavy, light;
  auto run_apply = [](StoreFixture& f, bool lightweight) {
    f.run([&f, lightweight]() -> sim::CoTask<void> {
      for (int i = 0; i < 50; i++) {
        Transaction t;
        const std::string n = std::to_string(i);
        auto oid = f.oid("obj" + n);
        t.write(oid, 0, Payload::pattern(4096, std::uint64_t(i)));
        t.omap_setkeys(oid, {{"k" + n, kv::Value::virt(180)}});
        t.setattrs(oid, {{"_", kv::Value::virt(250)}});
        if (!lightweight) t.set_alloc_hint(oid);
        co_await f.store.apply_transaction(t, lightweight);
      }
    });
  };
  run_apply(heavy, false);
  run_apply(light, true);
  EXPECT_GT(heavy.store.syscalls(), 2 * light.store.syscalls());
  // Community applies drag the fdatasync/fs-journal overhead to the device.
  EXPECT_GT(heavy.ssd.bytes_written(), light.ssd.bytes_written());
}

TEST(FileStore, ColdMetadataCostsDeviceReads) {
  FileStore::Config cfg;
  cfg.page_cache_pages = 4;  // effectively no cache
  StoreFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 20; i++) {
      Transaction t;
      t.write(f.oid("obj" + std::to_string(i)), 0, Payload::pattern(4096, 1));
      co_await f.store.apply_transaction(t, true);
    }
    for (int i = 0; i < 20; i++) {
      (void)co_await f.store.getattr(f.oid("obj" + std::to_string(i)), "_");
    }
    EXPECT_GE(f.store.metadata_device_reads(), 15u);
  });
}

TEST(FileStore, WritebackBackpressureStallsWhenDirtyLimitHit) {
  FileStore::Config cfg;
  cfg.writeback_limit_bytes = 64 * 1024;
  StoreFixture f(cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 100; i++) {
      Transaction t;
      t.write(f.oid("big"), std::uint64_t(i) * 64 * 1024, Payload::pattern(64 * 1024, 1));
      co_await f.store.apply_transaction(t, true);  // light: buffered path
    }
    co_await f.store.drain();
  });
  EXPECT_GT(f.store.writeback_stalls(), 0u);
  EXPECT_EQ(f.store.dirty_bytes(), 0u);  // drained
}

// ---------------------------------------------------------------------------
// Object content and lookups (the ObjectStore base), on both backends
// ---------------------------------------------------------------------------

class StoreContent : public ::testing::TestWithParam<store::Backend> {
 protected:
  store::StoreConfig config(bool assume_populated = false) const {
    store::StoreConfig cfg;
    cfg.backend = GetParam();
    cfg.assume_populated = assume_populated;
    return cfg;
  }
};

TEST_P(StoreContent, WriteThenReadBack) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    auto data = Payload::pattern(8192, 42);
    t.write(f.oid("a"), 0, data);
    co_await f.store.apply_transaction(t, false);
    auto r = co_await f.store.read(f.oid("a"), 0, 8192);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.length, 8192u);
    EXPECT_EQ(*r.data, data.materialize());
  });
}

TEST_P(StoreContent, OverwriteMiddleOfExtent) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    auto base = Payload::pattern(16384, 1);
    auto patch = Payload::pattern(4096, 2);
    Transaction t1, t2;
    t1.write(f.oid("a"), 0, base);
    co_await f.store.apply_transaction(t1, true);
    t2.write(f.oid("a"), 4096, patch);
    co_await f.store.apply_transaction(t2, true);

    auto r = co_await f.store.read(f.oid("a"), 0, 16384);
    auto expect = base.materialize();
    auto p = patch.materialize();
    std::copy(p.begin(), p.end(), expect.begin() + 4096);
    EXPECT_EQ(*r.data, expect);
  });
}

TEST_P(StoreContent, OverwriteSpanningExtents) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    // Three adjacent 4K extents, then one 8K write covering the middle
    // straddling extents 0/1 and 1/2 boundaries.
    for (int i = 0; i < 3; i++) {
      Transaction t;
      t.write(f.oid("a"), std::uint64_t(i) * 4096, Payload::pattern(4096, 10 + i));
      co_await f.store.apply_transaction(t, true);
    }
    Transaction t;
    auto mid = Payload::pattern(8192, 99);
    t.write(f.oid("a"), 2048, mid);
    co_await f.store.apply_transaction(t, true);

    auto r = co_await f.store.read(f.oid("a"), 0, 12288);
    auto e0 = Payload::pattern(4096, 10).materialize();
    auto e2 = Payload::pattern(4096, 12).materialize();
    auto m = mid.materialize();
    std::vector<std::uint8_t> expect(12288);
    std::copy(e0.begin(), e0.begin() + 2048, expect.begin());
    std::copy(m.begin(), m.end(), expect.begin() + 2048);
    std::copy(e2.begin() + 2048, e2.end(), expect.begin() + 10240);
    EXPECT_EQ(*r.data, expect);
  });
}

TEST_P(StoreContent, HolesReadAsZeros) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.write(f.oid("a"), 8192, Payload::pattern(4096, 5));
    co_await f.store.apply_transaction(t, true);
    auto r = co_await f.store.read(f.oid("a"), 0, 12288);
    EXPECT_EQ(r.length, 12288u);
    bool all_zero = true;
    for (int i = 0; i < 8192; i++) all_zero &= (*r.data)[std::size_t(i)] == 0;
    EXPECT_TRUE(all_zero);
  });
}

TEST_P(StoreContent, ReadPastEndClamps) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(4096, 5));
    co_await f.store.apply_transaction(t, true);
    auto r = co_await f.store.read(f.oid("a"), 2048, 100000);
    EXPECT_EQ(r.length, 2048u);
    auto r2 = co_await f.store.read(f.oid("a"), 10000, 4096);
    EXPECT_TRUE(r2.found);
    EXPECT_EQ(r2.length, 0u);
    auto r3 = co_await f.store.read(f.oid("missing"), 0, 4096);
    EXPECT_FALSE(r3.found);
  });
}

TEST_P(StoreContent, XattrsRoundTripAndStat) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(4096, 1));
    t.setattrs(f.oid("a"), {{"_", kv::Value::real("objectinfo")}});
    co_await f.store.apply_transaction(t, false);
    auto attr = co_await f.store.getattr(f.oid("a"), "_");
    EXPECT_TRUE(attr.has_value());
    if (attr) {
      EXPECT_EQ(attr->data(), "objectinfo");
    }
    EXPECT_FALSE((co_await f.store.getattr(f.oid("a"), "nope")).has_value());
    EXPECT_TRUE(f.store.object_in_memory(f.oid("a")));
    EXPECT_EQ(f.store.object_size(f.oid("a")), 4096u);
    // An object never written: no xattrs, no size, nothing to read.
    EXPECT_FALSE((co_await f.store.getattr(f.oid("ghost"), "_")).has_value());
    EXPECT_FALSE((co_await f.store.read(f.oid("ghost"), 0, 4096)).found);
    EXPECT_FALSE(f.store.object_in_memory(f.oid("ghost")));
    EXPECT_EQ(f.store.object_size(f.oid("ghost")), 0u);
  });
}

TEST_P(StoreContent, MetadataReadsHitPageCacheAfterFirstTouch) {
  store::StoreRig<> f(config());
  f.run([&]() -> sim::CoTask<void> {
    Transaction t;
    t.write(f.oid("a"), 0, Payload::pattern(4096, 1));
    t.setattrs(f.oid("a"), {{"_", kv::Value::virt(100)}});
    co_await f.store.apply_transaction(t, false);
    const auto before = f.store.metadata_device_reads();
    (void)co_await f.store.getattr(f.oid("a"), "_");
    (void)co_await f.store.getattr(f.oid("a"), "_");
    // setattrs warmed the meta page; no device reads needed.
    EXPECT_EQ(f.store.metadata_device_reads(), before);
    // A cold object pays exactly one metadata read, then hits.
    (void)co_await f.store.getattr(f.oid("cold"), "_");
    (void)co_await f.store.getattr(f.oid("cold"), "_");
    EXPECT_EQ(f.store.metadata_device_reads(), before + 1);
  });
}

TEST_P(StoreContent, AssumePopulatedSynthesizesObjects) {
  store::StoreRig<> f(config(/*assume_populated=*/true));
  const ObjectId oid = f.oid("never.seen");
  constexpr std::uint64_t kSize = store::ObjectStore::kPopulatedObjectSize;
  f.run([&]() -> sim::CoTask<void> {
    // The object exists with kSize bytes and its object_info / snapset
    // xattrs before anything is written, without taking a table entry.
    auto attr = co_await f.store.getattr(oid, "_");
    EXPECT_TRUE(attr.has_value());
    EXPECT_TRUE((co_await f.store.getattr(oid, "snapset")).has_value());
    EXPECT_FALSE((co_await f.store.getattr(oid, "nope")).has_value());
    auto tail = co_await f.store.read(oid, kSize - 100, 4096);
    EXPECT_TRUE(tail.found);
    EXPECT_EQ(tail.length, 100u);
    auto past = co_await f.store.read(oid, kSize, 4096);
    EXPECT_TRUE(past.found);
    EXPECT_EQ(past.length, 0u);
    auto r = co_await f.store.read(oid, 1 * kMiB, 4096);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.length, 4096u);
    EXPECT_FALSE(f.store.object_in_memory(oid));
    // Overwrite then read back: new data wins, the remainder keeps the
    // synthesized content deterministically.
    Transaction t;
    auto fresh = Payload::pattern(4096, 777);
    t.write(oid, 1 * kMiB, fresh);
    co_await f.store.apply_transaction(t, true);
    EXPECT_EQ(f.store.object_size(oid), kSize);
    auto r2 = co_await f.store.read(oid, 1 * kMiB, 4096);
    EXPECT_EQ(*r2.data, fresh.materialize());
    auto r3 = co_await f.store.read(oid, 1 * kMiB + 4096, 4096);
    EXPECT_EQ(*r3.data, Payload::pattern(4096, store::ExtentMap::populated_seed(oid),
                                         1 * kMiB + 4096)
                            .materialize());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreContent,
                         ::testing::Values(store::Backend::kFile, store::Backend::kFlash),
                         [](const ::testing::TestParamInfo<store::Backend>& info) {
                           return std::string(store::backend_name(info.param));
                         });

// ---------------------------------------------------------------------------
// PageCache
// ---------------------------------------------------------------------------

// Reference model: a std::list + std::unordered_map LRU with the page
// cache's semantics (lookup and insert refresh, missing_pages does not).
class RefPageCache {
 public:
  explicit RefPageCache(std::size_t capacity) : capacity_(capacity) {}

  bool lookup(std::uint64_t obj, std::uint64_t page) {
    auto it = map_.find(Key{obj, page});
    if (it == map_.end()) {
      misses_++;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_++;
    return true;
  }
  void insert(std::uint64_t obj, std::uint64_t page) {
    const Key key{obj, page};
    if (auto it = map_.find(key); it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(key);
    map_[key] = lru_.begin();
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  bool resident(std::uint64_t obj, std::uint64_t page) const {
    return map_.count(Key{obj, page}) != 0;
  }
  std::uint64_t missing_pages(std::uint64_t obj, std::uint64_t offset, std::uint64_t len) const {
    if (len == 0) return 0;
    std::uint64_t missing = 0;
    for (std::uint64_t p = offset / 4096; p <= (offset + len - 1) / 4096; p++) {
      missing += resident(obj, p) ? 0 : 1;
    }
    return missing;
  }
  void insert_range(std::uint64_t obj, std::uint64_t offset, std::uint64_t len) {
    if (len == 0) return;
    for (std::uint64_t p = offset / 4096; p <= (offset + len - 1) / 4096; p++) insert(obj, p);
  }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Key {
    std::uint64_t obj;
    std::uint64_t page;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::size_t(k.obj * 0x9e3779b97f4a7c15ull ^ k.page);
    }
  };
  std::size_t capacity_;
  std::list<Key> lru_;
  std::unordered_map<Key, std::list<Key>::iterator, KeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

TEST(PageCache, MatchesReferenceLru) {
  struct Case {
    std::size_t capacity;
    std::uint64_t objects;
    std::uint64_t pages;  // per object
    int steps;
  };
  // The last case holds ~16K pages, so the index doubles from 16 slots
  // through 32K, and the ~30K-page key space keeps it evicting.
  for (const Case& c : {Case{0, 3, 8, 2000}, Case{1, 3, 8, 2000}, Case{7, 4, 8, 4000},
                        Case{16384, 64, 470, 60000}}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << c.capacity);
    constexpr std::uint64_t kPage = PageCache::kPageSize;
    PageCache pc(c.capacity);
    RefPageCache ref(c.capacity);
    Rng rng(c.capacity + 11);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> probes;
    for (int i = 0; i < 16; i++) {
      probes.emplace_back(rng.uniform_int(0, c.objects - 1), rng.uniform_int(0, c.pages - 1));
    }
    for (int step = 0; step < c.steps; step++) {
      const std::uint64_t obj = rng.uniform_int(0, c.objects - 1);
      const std::uint64_t page = rng.uniform_int(0, c.pages - 1);
      const std::uint64_t off = page * kPage + rng.uniform_int(0, kPage - 1);
      const std::uint64_t len = rng.uniform_int(0, 5 * kPage);
      switch (rng.uniform_int(0, 3)) {
        case 0:
          ASSERT_EQ(pc.lookup(obj, page), ref.lookup(obj, page)) << "step " << step;
          break;
        case 1:
          pc.insert(obj, page);
          ref.insert(obj, page);
          break;
        case 2:
          pc.insert_range(obj, off, len);
          ref.insert_range(obj, off, len);
          break;
        default:
          ASSERT_EQ(pc.missing_pages(obj, off, len), ref.missing_pages(obj, off, len))
              << "step " << step;
          break;
      }
      ASSERT_EQ(pc.size(), ref.size()) << "step " << step;
      ASSERT_EQ(pc.hits(), ref.hits()) << "step " << step;
      ASSERT_EQ(pc.misses(), ref.misses()) << "step " << step;
      for (const auto& [o, p] : probes) {
        ASSERT_EQ(pc.missing_pages(o, p * kPage, 1), ref.missing_pages(o, p * kPage, 1))
            << "step " << step << " probe " << o << "/" << p;
      }
    }
    EXPECT_LE(pc.size(), c.capacity);
  }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

struct JournalFixture {
  sim::Simulation sim;
  dev::NvramModel nvram{sim, "nvram"};

  template <class Fn>
  void run(Fn fn) {
    bool done = false;
    sim::spawn_fn([&]() -> sim::CoTask<void> {
      co_await fn();
      done = true;
    });
    sim.run();
    ASSERT_TRUE(done);
  }
};

TEST(Journal, WritesBatchUnderConcurrency) {
  JournalFixture f;
  Journal::Config cfg;
  Journal j(f.sim, f.nvram, cfg);
  sim::WaitGroup wg(f.sim);
  for (int i = 0; i < 64; i++) {
    wg.add(1);
    sim::spawn_fn([&j, &wg]() -> sim::CoTask<void> {
      co_await j.reserve(8192);
      j.mark_applied(co_await j.write_entry(8192, std::vector<std::uint8_t>(16, 1)));
      wg.done();
    });
  }
  f.run([&]() -> sim::CoTask<void> { co_await wg.wait(); });
  EXPECT_EQ(j.entries_written(), 64u);
  EXPECT_LT(j.batches_written(), 64u);  // aggregation happened
  EXPECT_GT(j.average_batch(), 1.5);
}

TEST(Journal, FullRingBlocksUntilRelease) {
  JournalFixture f;
  Journal::Config cfg;
  cfg.size_bytes = 64 * 1024;
  cfg.header_bytes = 0;
  Journal j(f.sim, f.nvram, cfg);
  Time second_done = 0;
  f.run([&]() -> sim::CoTask<void> {
    co_await j.reserve(48 * 1024);
    const std::uint64_t seq = co_await j.write_entry(48 * 1024, std::vector<std::uint8_t>(16, 1));
    // This reservation cannot fit until the first is applied.
    sim::spawn_fn([&]() -> sim::CoTask<void> {
      co_await j.reserve(32 * 1024);
      second_done = f.sim.now();
    });
    co_await sim::delay(f.sim, 5 * kMillisecond);
    EXPECT_EQ(second_done, 0u);
    EXPECT_GT(j.full_stalls(), 0u);
    j.mark_applied(seq);
    co_await sim::delay(f.sim, 1 * kMillisecond);
    EXPECT_GT(second_done, 0u);
  });
}

TEST(Transaction, EncodeDecodeRoundTrip) {
  Transaction t;
  ObjectId oid{7, "rbd_data.3.00000000004a"};
  t.write(oid, 12288, Payload::pattern(4096, 99, 512));
  t.write(oid, 0, Payload::bytes({0xde, 0xad, 0xbe, 0xef}));
  t.omap_setkeys(oid, {{"pglog.1", kv::Value::virt(180)},
                       {"pginfo", kv::Value::real("epoch=4")}});
  t.omap_rmkeyrange(oid, "pglog.0000", "pglog.0040");
  t.setattrs(oid, {{"_", kv::Value::virt(250)}});
  t.set_alloc_hint(oid);

  const auto img = t.encode();
  auto back = Transaction::decode(img.data(), img.size());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->op_count(), t.op_count());
  for (std::size_t i = 0; i < t.op_count(); i++) {
    const TxOp& a = t.ops()[i];
    const TxOp& b = back->ops()[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.oid, b.oid);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.data.size(), b.data.size());
    EXPECT_EQ(a.data.is_virtual(), b.data.is_virtual());
    EXPECT_EQ(a.data.fingerprint(), b.data.fingerprint());
    EXPECT_EQ(a.omap, b.omap);
    EXPECT_EQ(a.attrs, b.attrs);
    EXPECT_EQ(a.range_lo, b.range_lo);
    EXPECT_EQ(a.range_hi, b.range_hi);
  }
  // The round-trip is byte-stable: re-encoding reproduces the image.
  EXPECT_EQ(back->encode(), img);

  // Truncated or overlong images are malformed, never misparsed.
  EXPECT_FALSE(Transaction::decode(img.data(), img.size() - 1).has_value());
  auto longer = img;
  longer.push_back(0);
  EXPECT_FALSE(Transaction::decode(longer.data(), longer.size()).has_value());
}

// ObjectId is a pg plus a handle into the process-wide name table; it must
// hash, compare and order exactly as a {pg, std::string} identity did.
TEST(ObjectId, HashMatchesGoldenValues) {
  static_assert(sizeof(ObjectId) <= 16);
  // Captured from the std::string-named ObjectId: MetaCache slots, page-cache
  // keys, populated_seed and objects_ iteration order all follow these.
  EXPECT_EQ(ObjectIdHash{}(ObjectId{7, "rbd_data.vm12.000000000abc"}), 17915026833939009280ull);
  EXPECT_EQ(ObjectIdHash{}(ObjectId{0, "rbd_data.vm0.000000000000"}), 2850491858252117702ull);
  EXPECT_EQ(ObjectIdHash{}(ObjectId{4095, "obj"}), 13649711579005340314ull);
  EXPECT_EQ(ObjectIdHash{}(ObjectId{3, ""}), 10347300228962016849ull);
  EXPECT_EQ(ObjectId{}, (ObjectId{0, ""}));
}

TEST(ObjectId, OrderAndEqualityAgreeWithStdString) {
  Rng rng(41);
  const auto random_id = [&] {
    std::string name = "rbd_data.";
    const auto len = rng.uniform_int(0, 6);
    for (std::uint64_t i = 0; i < len; i++) name += char('0' + rng.uniform_int(0, 3));
    return std::pair{std::uint32_t(rng.uniform_int(0, 2)), name};
  };
  for (int i = 0; i < 5000; i++) {
    const auto [pa, na] = random_id();
    const auto [pb, nb] = random_id();
    const ObjectId a{pa, na}, b{pb, nb};
    EXPECT_EQ(a.name(), na);
    EXPECT_EQ(a == b, std::pair(pa, na) == std::pair(pb, nb));
    EXPECT_EQ(a <=> b, std::pair(pa, na) <=> std::pair(pb, nb)) << na << " vs " << nb;
  }
}

// The journal image format, byte for byte: a ring written by one build
// must replay under the next. encode() sizes the image exactly up front.
TEST(Transaction, EncodeMatchesGoldenBytes) {
  Transaction t;
  ObjectId oid{7, "rbd_data.3.00000000004a"};
  t.write(oid, 12288, Payload::pattern(4096, 99, 512));
  t.write(oid, 0, Payload::bytes({0xde, 0xad, 0xbe, 0xef}));
  t.omap_setkeys(oid, {{"pglog.1", kv::Value::virt(180)},
                       {"pginfo", kv::Value::real("epoch=4")}});
  t.omap_rmkeyrange(oid, "pglog.0000", "pglog.0040");
  t.setattrs(oid, {{"_", kv::Value::virt(250)}});
  t.set_alloc_hint(oid);

  const auto img = t.encode();
  EXPECT_EQ(img.capacity(), img.size());
  std::string hex;
  for (std::uint8_t b : img) {
    static const char kDigits[] = "0123456789abcdef";
    hex += kDigits[b >> 4];
    hex += kDigits[b & 15];
  }
  const std::string golden =
      "06000000000700000017007262645f646174612e332e30303030303030303030"
      "3461003000000000000000001000000000000063000000000000000002000000"
      "000000000700000017007262645f646174612e332e3030303030303030303034"
      "610000000000000000010400000000000000deadbeef01070000001700726264"
      "5f646174612e332e303030303030303030303461000000000000000002000700"
      "70676c6f672e3100b400000006007067696e666f010700000065706f63683d34"
      "020700000017007262645f646174612e332e3030303030303030303034610000"
      "0000000000000a0070676c6f672e303030300a0070676c6f672e303034300307"
      "00000017007262645f646174612e332e30303030303030303030346100000000"
      "00000000010001005f00fa000000040700000017007262645f646174612e332e"
      "3030303030303030303034610000000000000000";
  EXPECT_EQ(hex, golden);
}

TEST(Journal, RestartOnEmptyRingReturnsNothing) {
  JournalFixture f;
  Journal j(f.sim, f.nvram, Journal::Config{});
  auto res = j.restart();
  EXPECT_TRUE(res.records.empty());
  EXPECT_EQ(res.torn_tails, 0u);
  EXPECT_EQ(res.crc_failures, 0u);
  EXPECT_EQ(res.truncated, 0u);
}

TEST(Journal, TornWriteTruncatesTailAndReplaysPrefix) {
  JournalFixture f;
  Journal::Config cfg;
  Journal j(f.sim, f.nvram, cfg);
  f.run([&]() -> sim::CoTask<void> {
    // Stall the device so the writer holds its first batch and the rest of
    // the entries pile up in the submit queue, then tear that queue.
    j.stall_until(10 * kMillisecond);
    for (int i = 0; i < 5; i++) {
      sim::spawn_fn([&j, i]() -> sim::CoTask<void> {
        co_await j.reserve(4096);
        std::vector<std::uint8_t> img(64 + std::size_t(i), std::uint8_t(i));
        co_await j.write_entry(4096, std::move(img));
      });
      if (i == 0) {
        // Let the writer pop entry 0 into its (stalled) batch before the
        // rest arrive, so entries 1..4 pile up in the submit queue.
        co_await sim::delay(f.sim, 10 * kMicrosecond);
      }
    }
    co_await sim::delay(f.sim, 1 * kMillisecond);
    // Entry 0 rode into the writer's held batch; entries 1..4 were queued.
    // The tear lands 2 full records, tears the 3rd, loses the 4th.
    EXPECT_EQ(j.inject_torn_write(7), 4u);

    auto res = j.restart();
    EXPECT_EQ(res.torn_tails, 1u);
    EXPECT_EQ(res.crc_failures, 0u);
    EXPECT_EQ(res.truncated, 0u);  // nothing unapplied beyond the torn record
    EXPECT_EQ(res.records.size(), 2u);
    if (res.records.size() == 2) {
      EXPECT_EQ(res.records[0].seq, 1u);
      EXPECT_EQ(res.records[1].seq, 2u);
    }
    EXPECT_EQ(j.records_retained(), 2u);

    // Replayed records retire idempotently; truncated seqs are ignored.
    j.mark_applied(1);
    j.mark_applied(1);
    j.mark_applied(3);  // the torn record's seq — already truncated, no-op
    j.mark_applied(2);
    EXPECT_EQ(j.records_retained(), 0u);
    co_return;
  });
  // The held batch survived the tear (the device finished its DMA): its
  // entry committed after the stall with a seq past the truncated tail.
  EXPECT_EQ(j.entries_written(), 1u);
  EXPECT_EQ(j.records_retained(), 1u);
}

TEST(Journal, CorruptRecordMidRingStopsReplayAtFirstBadCrc) {
  JournalFixture f;
  Journal j(f.sim, f.nvram, Journal::Config{});
  std::vector<std::uint64_t> seqs;
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 4; i++) {
      co_await j.reserve(4096);
      std::vector<std::uint8_t> img(128, std::uint8_t(i));
      seqs.push_back(co_await j.write_entry(4096, std::move(img)));
    }
  });
  ASSERT_EQ(seqs.size(), 4u);
  ASSERT_TRUE(j.corrupt_record(11));

  auto res = j.restart();
  EXPECT_EQ(res.crc_failures, 1u);
  EXPECT_EQ(res.torn_tails, 0u);
  // The scan stops at the flipped record: everything before it replays,
  // everything from it on is truncated.
  EXPECT_EQ(res.records.size() + 1 + res.truncated, 4u);
  EXPECT_EQ(j.records_retained(), res.records.size());
  for (std::size_t i = 0; i < res.records.size(); i++) {
    EXPECT_EQ(res.records[i].seq, seqs[i]);
  }
}

TEST(Journal, RestartSkipsAppliedPrefix) {
  JournalFixture f;
  Journal j(f.sim, f.nvram, Journal::Config{});
  std::vector<std::uint64_t> seqs;
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 4; i++) {
      co_await j.reserve(4096);
      std::vector<std::uint8_t> img(128, std::uint8_t(i));
      seqs.push_back(co_await j.write_entry(4096, std::move(img)));
    }
  });
  j.mark_applied(seqs[0]);
  j.mark_applied(seqs[1]);

  auto res = j.restart();
  ASSERT_EQ(res.records.size(), 2u);  // only the unapplied suffix replays
  EXPECT_EQ(res.records[0].seq, seqs[2]);
  EXPECT_EQ(res.records[1].seq, seqs[3]);
  EXPECT_EQ(res.torn_tails, 0u);
  EXPECT_EQ(res.crc_failures, 0u);
}

TEST(Journal, RetainedRingWrapAroundReplay) {
  JournalFixture f;
  Journal::Config cfg;
  cfg.size_bytes = 64 * 1024;  // each 16K entry is a quarter of the ring
  cfg.header_bytes = 0;
  Journal j(f.sim, f.nvram, cfg);
  std::vector<std::uint64_t> seqs;
  f.run([&]() -> sim::CoTask<void> {
    // Cycle the write position around the ring several times: every entry
    // is applied immediately, so space recycles and seq keeps climbing.
    for (int i = 0; i < 12; i++) {
      co_await j.reserve(16 * 1024);
      std::vector<std::uint8_t> img(64, std::uint8_t(i));
      const auto seq = co_await j.write_entry(16 * 1024, std::move(img));
      EXPECT_GT(seq, 0u);
      j.mark_applied(seq);
    }
    EXPECT_EQ(j.records_retained(), 0u);
    // Leave three unapplied entries laid down across the wrap point.
    for (int i = 0; i < 3; i++) {
      co_await j.reserve(16 * 1024);
      std::vector<std::uint8_t> img(64, std::uint8_t(100 + i));
      seqs.push_back(co_await j.write_entry(16 * 1024, std::move(img)));
    }
  });
  auto res = j.restart();
  // Replay hands back exactly the unapplied suffix in sequence order —
  // wrap-around must not reorder, duplicate, or resurrect recycled entries.
  ASSERT_EQ(res.records.size(), 3u);
  for (std::size_t i = 0; i < 3; i++) {
    EXPECT_EQ(res.records[i].seq, seqs[i]);
    EXPECT_EQ(res.records[i].payload.size(), 64u);
    EXPECT_EQ(res.records[i].payload[0], std::uint8_t(100 + i));
  }
  EXPECT_EQ(res.torn_tails, 0u);
  EXPECT_EQ(res.crc_failures, 0u);
  EXPECT_EQ(res.truncated, 0u);
  // Survivors stay retained (and hold ring space) until re-applied.
  EXPECT_EQ(j.records_retained(), 3u);
  for (auto s : seqs) j.mark_applied(s);
  EXPECT_EQ(j.records_retained(), 0u);
  EXPECT_EQ(j.bytes_in_use(), 0u);
}

TEST(Journal, WrapAroundReplayStopsAtCorruptRecord) {
  JournalFixture f;
  Journal::Config cfg;
  cfg.size_bytes = 64 * 1024;
  cfg.header_bytes = 0;
  Journal j(f.sim, f.nvram, cfg);
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 8; i++) {
      co_await j.reserve(16 * 1024);
      std::vector<std::uint8_t> img(64, std::uint8_t(i));
      const auto seq = co_await j.write_entry(16 * 1024, std::move(img));
      if (i < 4) j.mark_applied(seq);  // recycle the first lap of the ring
    }
  });
  ASSERT_TRUE(j.corrupt_record(99));
  auto res = j.restart();
  // The scan stops at the flipped record; everything from it on is dropped.
  EXPECT_EQ(res.crc_failures, 1u);
  EXPECT_LT(res.records.size(), 4u);
  EXPECT_EQ(res.records.size() + 1 + res.truncated, 4u);
}

TEST(Journal, CloseDuringStallRejectsNewWritesDeterministically) {
  JournalFixture f;
  Journal j(f.sim, f.nvram, Journal::Config{});
  std::uint64_t committed_seq = 0;
  f.run([&]() -> sim::CoTask<void> {
    j.stall_until(5 * kMillisecond);
    sim::spawn_fn([&]() -> sim::CoTask<void> {
      co_await j.reserve(4096);
      committed_seq = co_await j.write_entry(4096, std::vector<std::uint8_t>(32, 1));
    });
    co_await sim::delay(f.sim, 1 * kMillisecond);
    j.close();
    // Entries submitted after close are rejected, not silently committed:
    // a closing journal must never report durability it cannot provide.
    co_await j.reserve(4096);
    const std::uint64_t seq = co_await j.write_entry(4096, std::vector<std::uint8_t>(32, 2));
    EXPECT_EQ(seq, 0u);
    EXPECT_EQ(j.rejected_writes(), 1u);
    j.release(4096);
  });
  // The entry in flight at close() still drained and committed.
  EXPECT_GT(committed_seq, 0u);
  EXPECT_EQ(j.entries_written(), 1u);
}

TEST(Journal, TracksBytesAndStallTime) {
  JournalFixture f;
  Journal::Config cfg;
  Journal j(f.sim, f.nvram, cfg);
  f.run([&]() -> sim::CoTask<void> {
    co_await j.reserve(4096);
    j.mark_applied(co_await j.write_entry(4096, std::vector<std::uint8_t>(16, 1)));
  });
  EXPECT_GT(j.bytes_written(), 4096u);  // header included
  EXPECT_EQ(j.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace afc::fs
