// Tests for the LSM key-value store substrate: the hashed memtable, bloom
// filters, SSTable lookup, merge semantics, and the full Db against a
// reference std::map model (property-style), plus flush/compaction/stall
// behaviour and write-amplification accounting.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>
#include <optional>

#include "common/rng.h"
#include "device/ssd.h"
#include "kv/db.h"

namespace afc::kv {
namespace {

// ---------------------------------------------------------------------------
// MemTable
// ---------------------------------------------------------------------------

TEST(MemTable, PutGetOverwrite) {
  MemTable m;
  m.put("a", Value::real("1"), 1);
  m.put("b", Value::real("2"), 2);
  EXPECT_EQ(m.get("a")->value.data(), "1");
  m.put("a", Value::real("updated"), 3);
  EXPECT_EQ(m.get("a")->value.data(), "updated");
  EXPECT_EQ(m.get("a")->seq, 3u);
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(m.get("missing"), nullptr);
}

TEST(MemTable, TombstoneVisible) {
  MemTable m;
  m.put("k", Value::real("v"), 1);
  m.del("k", 2);
  const MemEntry* e = m.get("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->type, EntryType::kDelete);
  // Deleting a never-written key still records a tombstone (needed to mask
  // older SSTable versions).
  m.del("ghost", 3);
  ASSERT_NE(m.get("ghost"), nullptr);
  EXPECT_EQ(m.get("ghost")->type, EntryType::kDelete);
}

TEST(MemTable, DumpIsSorted) {
  MemTable m;
  Rng rng(5);
  for (int i = 0; i < 500; i++) {
    m.put("key" + std::to_string(rng.uniform_int(0, 999)), Value::virt(10), std::uint64_t(i));
  }
  auto entries = m.dump();
  for (std::size_t i = 1; i < entries.size(); i++) {
    EXPECT_LT(entries[i - 1].key, entries[i].key);
  }
  EXPECT_EQ(entries.size(), m.count());
}

TEST(MemTable, SeekAndIterate) {
  MemTable m;
  for (char c = 'a'; c <= 'e'; c++) m.put(std::string(1, c), Value::virt(1), 1);
  const MemEntry* e = m.seek("b");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key(), "b");
  e = m.next(e);
  EXPECT_EQ(e->key(), "c");
  EXPECT_EQ(m.seek("zzz"), nullptr);
  // Seek between keys lands on the next one.
  EXPECT_EQ(m.seek("bb")->key(), "c");
}

TEST(MemTable, ByteAccountingTracksContent) {
  MemTable m;
  EXPECT_EQ(m.approximate_bytes(), 0u);
  m.put("key1", Value::virt(100), 1);
  const auto after_one = m.approximate_bytes();
  EXPECT_GT(after_one, 100u);
  m.put("key1", Value::virt(10), 2);  // overwrite with smaller value
  EXPECT_LT(m.approximate_bytes(), after_one);
}

// Keys of 1..200 bytes (sharing prefixes, so ordering is exercised past
// the first byte), overwrites and tombstones, checked through get, seek /
// next, dump and byte accounting against a std::map.
TEST(MemTable, AgainstReferenceModel) {
  MemTable m;
  struct Ref {
    bool live;
    std::string value;
    std::uint64_t seq;
  };
  std::map<std::string, Ref> ref;
  Rng rng(31);
  std::vector<std::string> keys;
  for (int i = 0; i < 400; i++) {
    const std::size_t len = rng.uniform_int(1, 200);
    std::string k(len, 'k');
    for (std::size_t c = len / 2; c < len; c++) k[c] = char('a' + rng.uniform_int(0, 3));
    keys.push_back(k);
  }
  std::uint64_t seq = 0;
  for (int i = 0; i < 5000; i++) {
    const std::string& key = keys[rng.uniform_int(0, keys.size() - 1)];
    if (rng.chance(0.25)) {
      m.del(key, ++seq);
      ref[key] = {false, "", seq};
    } else {
      const std::string n = std::to_string(i);
      const std::string val = "v" + n;
      m.put(key, Value::real(val), ++seq);
      ref[key] = {true, val, seq};
    }
  }
  std::uint64_t bytes = 0;
  for (const auto& [key, expect] : ref) {
    bytes += key.size() + expect.value.size() + 16;
    const MemEntry* e = m.get(key);
    ASSERT_NE(e, nullptr) << key;
    EXPECT_EQ(e->key(), key);
    EXPECT_EQ(e->seq, expect.seq);
    if (expect.live) {
      ASSERT_EQ(e->type, EntryType::kPut);
      EXPECT_EQ(e->value.data(), expect.value);
    } else {
      EXPECT_EQ(e->type, EntryType::kDelete);
    }
  }
  EXPECT_EQ(m.count(), ref.size());
  EXPECT_EQ(m.approximate_bytes(), bytes);
  EXPECT_EQ(m.get(std::string(201, 'k')), nullptr);

  const std::vector<Entry> dumped = m.dump();
  ASSERT_EQ(dumped.size(), ref.size());
  auto it = ref.begin();
  for (const MemEntry* e = m.seek(""); e != nullptr; e = m.next(e), ++it) {
    ASSERT_NE(it, ref.end());
    const Entry& d = dumped[std::size_t(std::distance(ref.begin(), it))];
    EXPECT_EQ(e->key(), it->first);
    EXPECT_EQ(d.key, it->first);
    EXPECT_EQ(d.seq, it->second.seq);
    EXPECT_EQ(d.value, e->value);
  }
  EXPECT_EQ(it, ref.end());
  for (int probe = 0; probe < 50; probe++) {
    const std::string& key = keys[rng.uniform_int(0, keys.size() - 1)];
    const std::string from = key.substr(0, rng.uniform_int(1, 120));
    const MemEntry* e = m.seek(from);
    auto want = ref.lower_bound(from);
    if (want == ref.end()) {
      EXPECT_EQ(e, nullptr) << from;
    } else {
      ASSERT_NE(e, nullptr) << from;
      EXPECT_EQ(e->key(), want->first);
    }
  }
}

TEST(Value, SixteenBytesSharedAndComparedByContent) {
  static_assert(sizeof(Value) == 16);
  const Value v = Value::virt(180);
  EXPECT_TRUE(v.is_virtual());
  EXPECT_EQ(v.size(), 180u);
  EXPECT_EQ(v.virtual_len(), 180u);
  EXPECT_TRUE(v.data().empty());

  const std::string bytes(100, 'x');
  const Value r = Value::real(bytes);
  EXPECT_FALSE(r.is_virtual());
  EXPECT_EQ(r.size(), 100u);
  EXPECT_EQ(r.data(), bytes);

  // Copies share the bytes; moves hand them over.
  Value copy = r;
  EXPECT_EQ(copy.data().data(), r.data().data());
  Value moved = std::move(copy);
  EXPECT_EQ(moved.data().data(), r.data().data());
  copy = moved;
  EXPECT_EQ(copy.data().data(), r.data().data());

  // Equality is by content, not by block.
  EXPECT_EQ(Value::real(bytes), r);
  EXPECT_NE(Value::real("y"), r);
  EXPECT_NE(Value::virt(100), r);
  EXPECT_EQ(Value::virt(180), v);
  EXPECT_NE(Value::virt(181), v);
  EXPECT_EQ(Value::real(""), Value());
  EXPECT_FALSE(Value().is_virtual());
  EXPECT_EQ(Value().size(), 0u);
}

// Puts and dels interleaved with dump / seek / next, so the sorted view is
// extended and merged many times; every checkpoint compares the whole table
// with a std::map. Then the table is moved the way Db rotates its memtable
// (move-construct into the immutable slot, move-assign a fresh one).
TEST(MemTable, SortedViewMatchesStdMapAcrossMerges) {
  struct Ref {
    std::string value;
    std::uint64_t seq;
    EntryType type;
  };
  using RefMap = std::map<std::string, Ref>;
  const auto expect_matches = [](const MemTable& m, const RefMap& ref, Rng& rng) {
    std::uint64_t bytes = 0;
    for (const auto& [k, r] : ref) bytes += k.size() + r.value.size() + 16;
    ASSERT_EQ(m.count(), ref.size());
    ASSERT_EQ(m.approximate_bytes(), bytes);
    const std::vector<Entry> dumped = m.dump();
    ASSERT_EQ(dumped.size(), ref.size());
    auto it = ref.begin();
    for (const Entry& e : dumped) {
      ASSERT_EQ(e.key, it->first);
      ASSERT_EQ(e.value.data(), it->second.value);
      ASSERT_EQ(e.seq, it->second.seq);
      ASSERT_EQ(e.type, it->second.type);
      ++it;
    }
    for (int probe = 0; probe < 8; probe++) {
      const std::string id = std::to_string(rng.uniform_int(0, 2100));
      const std::string from = "k" + id;
      auto want = ref.lower_bound(from);
      const MemEntry* got = m.seek(from);
      for (int walk = 0; walk < 5; walk++, ++want) {
        if (want == ref.end()) {
          ASSERT_EQ(got, nullptr) << from;
          break;
        }
        ASSERT_NE(got, nullptr) << from;
        ASSERT_EQ(got->key(), want->first);
        ASSERT_EQ(m.get(got->key()), got);  // the index and the view share entries
        got = m.next(got);
      }
    }
  };

  MemTable m;
  RefMap ref;
  Rng rng(77);
  std::uint64_t seq = 0;
  const auto mutate = [&](MemTable& t, RefMap& r, int ops) {
    for (int i = 0; i < ops; i++) {
      const std::string id = std::to_string(rng.uniform_int(0, 2000));
      const std::string key = "k" + id;
      if (rng.chance(0.2)) {
        t.del(key, ++seq);
        r[key] = Ref{"", seq, EntryType::kDelete};
      } else {
        const std::string n = std::to_string(rng.uniform_int(0, 1u << 20));
        const std::string val = "v" + n;
        t.put(key, Value::real(val), ++seq);
        r[key] = Ref{val, seq, EntryType::kPut};
      }
    }
  };
  for (int round = 0; round < 120; round++) {
    mutate(m, ref, int(rng.uniform_int(1, 60)));
    ASSERT_NO_FATAL_FAILURE(expect_matches(m, ref, rng)) << "round " << round;
  }

  std::optional<MemTable> imm;
  imm.emplace(std::move(m));
  m = MemTable();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.approximate_bytes(), 0u);
  ASSERT_NO_FATAL_FAILURE(expect_matches(*imm, ref, rng));
  // Both tables keep working after the move: the moved table's sorted view
  // extends, and the fresh one builds its own.
  mutate(*imm, ref, 200);
  ASSERT_NO_FATAL_FAILURE(expect_matches(*imm, ref, rng));
  RefMap fresh;
  mutate(m, fresh, 300);
  ASSERT_NO_FATAL_FAILURE(expect_matches(m, fresh, rng));
}

// ---------------------------------------------------------------------------
// Bloom filter & SSTable
// ---------------------------------------------------------------------------

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (int i = 0; i < 1000; i++) bf.add("key" + std::to_string(i));
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(bf.may_contain("key" + std::to_string(i)));
  }
}

TEST(BloomFilter, LowFalsePositiveRate) {
  BloomFilter bf(1000);
  for (int i = 0; i < 1000; i++) bf.add("key" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; i++) {
    if (bf.may_contain("other" + std::to_string(i))) fp++;
  }
  EXPECT_LT(fp, 500);  // ~1-2% expected at 10 bits/key, 4 probes
}

std::vector<Entry> make_entries(int n, std::uint64_t seq_base) {
  std::vector<Entry> out;
  for (int i = 0; i < n; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    out.push_back(Entry{key, Value::real("val" + std::to_string(i)), seq_base + std::uint64_t(i),
                        EntryType::kPut});
  }
  return out;
}

TEST(SsTable, GetFindsAllEntries) {
  SsTable t(1, 0, make_entries(500, 1));
  for (int i = 0; i < 500; i += 17) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    auto [e, touched] = t.get(key);
    ASSERT_NE(e, nullptr) << key;
    EXPECT_TRUE(touched);
    EXPECT_EQ(e->value.data(), "val" + std::to_string(i));
  }
  EXPECT_EQ(t.get("absent").entry, nullptr);
  EXPECT_EQ(t.min_key(), "k000000");
  EXPECT_EQ(t.max_key(), "k000499");
}

TEST(SsTable, RangeAndOverlap) {
  SsTable t(1, 1, make_entries(100, 1));
  EXPECT_TRUE(t.key_in_range("k000050"));
  EXPECT_FALSE(t.key_in_range("z"));
  EXPECT_TRUE(t.overlaps("k000090", "k000200"));
  EXPECT_FALSE(t.overlaps("k001000", "k002000"));
  EXPECT_FALSE(t.overlaps("a", "b"));
}

TEST(SsTable, DataBytesReflectContent) {
  SsTable small(1, 0, make_entries(10, 1));
  SsTable big(2, 0, make_entries(1000, 1));
  EXPECT_GT(big.data_bytes(), small.data_bytes() * 50);
}

TEST(MergeRuns, NewestWinsAndTombstones) {
  std::vector<Entry> newer{{"a", Value::real("new"), 10, EntryType::kPut},
                           {"b", Value::real("x"), 11, EntryType::kDelete}};
  std::vector<Entry> older{{"a", Value::real("old"), 1, EntryType::kPut},
                           {"b", Value::real("keep?"), 2, EntryType::kPut},
                           {"c", Value::real("c"), 3, EntryType::kPut}};
  auto keep = merge_runs({&newer, &older}, /*drop_deletes=*/false);
  ASSERT_EQ(keep.size(), 3u);
  EXPECT_EQ(keep[0].value.data(), "new");
  EXPECT_EQ(keep[1].type, EntryType::kDelete);  // tombstone retained
  EXPECT_EQ(keep[2].key, "c");

  auto bottom = merge_runs({&newer, &older}, /*drop_deletes=*/true);
  ASSERT_EQ(bottom.size(), 2u);  // tombstone dropped at the bottom level
  EXPECT_EQ(bottom[0].key, "a");
  EXPECT_EQ(bottom[1].key, "c");
}

// ---------------------------------------------------------------------------
// Db end-to-end (on a simulated SSD)
// ---------------------------------------------------------------------------

struct DbFixture {
  sim::Simulation sim;
  dev::SsdModel ssd;
  Db db;

  explicit DbFixture(Db::Config cfg = small_config())
      : ssd(sim, "kvssd", dev::SsdModel::Config{}), db(sim, ssd, cfg) {}

  static Db::Config small_config() {
    Db::Config cfg;
    cfg.memtable_bytes = 16 * 1024;  // tiny: force flushes & compactions
    cfg.base_level_bytes = 64 * 1024;
    cfg.target_file_bytes = 16 * 1024;
    return cfg;
  }

  // Drive a coroutine to completion.
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

TEST(Db, PutGetDelete) {
  DbFixture f;
  f.run([&]() -> sim::CoTask<void> {
    co_await f.db.put("alpha", Value::real("1"));
    co_await f.db.put("beta", Value::real("2"));
    auto v = co_await f.db.get("alpha");
    EXPECT_TRUE(v.has_value());
    EXPECT_EQ(v->data(), "1");
    co_await f.db.del("alpha");
    v = co_await f.db.get("alpha");
    EXPECT_FALSE(v.has_value());
    v = co_await f.db.get("never");
    EXPECT_FALSE(v.has_value());
  });
}

TEST(Db, BatchIsAppliedAtomically) {
  DbFixture f;
  f.run([&]() -> sim::CoTask<void> {
    WriteBatch b;
    for (int i = 0; i < 50; i++) b.put("batch" + std::to_string(i), Value::virt(50));
    b.del("batch0");
    co_await f.db.write(std::move(b));
    auto gone = co_await f.db.get("batch0");
    EXPECT_FALSE(gone.has_value());
    auto v = co_await f.db.get("batch49");
    EXPECT_TRUE(v.has_value());
  });
}

TEST(Db, SurvivesFlushesAndCompactions) {
  DbFixture f;
  std::map<std::string, std::string> ref;
  f.run([&]() -> sim::CoTask<void> {
    Rng rng(77);
    for (int i = 0; i < 3000; i++) {
      const std::string key = "k" + std::to_string(rng.uniform_int(0, 2500));
      if (rng.chance(0.2)) {
        co_await f.db.del(key);
        ref.erase(key);
      } else {
        const std::string val = "value-" + std::to_string(i);
        co_await f.db.put(key, Value::real(val));
        ref[key] = val;
      }
    }
    co_await f.db.drain();
    EXPECT_GT(f.db.flushes(), 0u);
    EXPECT_GT(f.db.compactions(), 0u);
    for (const auto& [k, v] : ref) {
      auto got = co_await f.db.get(k);
      EXPECT_TRUE(got.has_value()) << k;
      if (got) {
        EXPECT_EQ(got->data(), v) << k;
      }
    }
    // Spot-check deleted keys stay deleted through compaction.
    for (int i = 0; i < 400; i++) {
      const std::string key = "k" + std::to_string(i);
      if (ref.count(key)) continue;
      auto got = co_await f.db.get(key);
      EXPECT_FALSE(got.has_value()) << key;
    }
  });
}

TEST(Db, RangeKeysOrderedAndBounded) {
  DbFixture f;
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 200; i++) {
      char key[16];
      std::snprintf(key, sizeof(key), "log.%06d", i);
      co_await f.db.put(key, Value::virt(60));
    }
    auto keys = co_await f.db.range_keys("log.000050", "log.000060", 100);
    EXPECT_EQ(keys.size(), 10u);
    if (keys.size() != 10u) co_return;
    EXPECT_EQ(keys.front(), "log.000050");
    EXPECT_EQ(keys.back(), "log.000059");
    auto limited = co_await f.db.range_keys("log.", "log.~", 7);
    EXPECT_EQ(limited.size(), 7u);
    // Deleted keys disappear from range scans.
    co_await f.db.del("log.000050");
    keys = co_await f.db.range_keys("log.000050", "log.000060", 100);
    EXPECT_EQ(keys.size(), 9u);
  });
}

TEST(Db, WriteAmplificationGrowsWithSmallValues) {
  // The paper: 4 MB-block writes show ~30 MB extra on 2 GB; 4 KB blocks show
  // ~2 GB extra. Small KV records => high WA once compaction kicks in.
  DbFixture f;
  f.run([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 4000; i++) {
      co_await f.db.put("pglog." + std::to_string(i % 512), Value::virt(64));
    }
    co_await f.db.drain();
  });
  EXPECT_GT(f.db.user_bytes(), 0u);
  EXPECT_GT(f.db.write_amplification(), 1.5);
  EXPECT_GT(f.db.device_write_bytes(), f.db.user_bytes());
}

TEST(Db, L0StallsEngageUnderBurst) {
  Db::Config cfg = DbFixture::small_config();
  cfg.l0_compaction_trigger = 2;
  cfg.l0_slowdown_threshold = 3;
  cfg.l0_stop_threshold = 5;
  DbFixture f(cfg);
  // Concurrent writers outpace the single background flush/compaction
  // worker, crowding L0.
  sim::WaitGroup wg(f.sim);
  for (int w = 0; w < 8; w++) {
    wg.add(1);
    sim::spawn_fn([&f, &wg, w]() -> sim::CoTask<void> {
      for (int i = 0; i < 1500; i++) {
        co_await f.db.put("burst" + std::to_string(w) + "." + std::to_string(i),
                          Value::virt(400));
      }
      wg.done();
    });
  }
  f.run([&]() -> sim::CoTask<void> {
    co_await wg.wait();
    co_await f.db.drain();
  });
  EXPECT_GT(f.db.stall_slowdowns() + f.db.stall_stops(), 0u);
}

TEST(Db, BatchingReducesWalRecords) {
  // One batch of N ops must log fewer WAL bytes than N separate puts (the
  // §3.4 rationale for batched transactions).
  auto run_one = [](bool batched) {
    DbFixture f;
    std::uint64_t wal_bytes = 0;
    f.run([&]() -> sim::CoTask<void> {
      for (int t = 0; t < 200; t++) {
        if (batched) {
          WriteBatch b;
          for (int i = 0; i < 3; i++) {
            b.put("t" + std::to_string(t) + "." + std::to_string(i), Value::virt(64));
          }
          co_await f.db.write(std::move(b));
        } else {
          for (int i = 0; i < 3; i++) {
            co_await f.db.put("t" + std::to_string(t) + "." + std::to_string(i),
                              Value::virt(64));
          }
        }
      }
      co_await f.db.drain();
      wal_bytes = f.db.device_write_bytes();
    });
    return wal_bytes;
  };
  EXPECT_LT(run_one(true), run_one(false));
}

TEST(Db, ConcurrentReadersDuringCompaction) {
  // get() snapshots candidate tables; a compaction completing mid-read must
  // not invalidate the lookup.
  DbFixture f;
  bool reads_done = false;
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 2000; i++) {
      co_await f.db.put("w" + std::to_string(i % 100), Value::virt(200));
    }
  });
  sim::spawn_fn([&]() -> sim::CoTask<void> {
    for (int i = 0; i < 500; i++) {
      auto v = co_await f.db.get("w" + std::to_string(i % 100));
      (void)v;
      co_await sim::delay(f.sim, 50 * kMicrosecond);
    }
    reads_done = true;
  });
  f.sim.run();
  EXPECT_TRUE(reads_done);
}

}  // namespace
}  // namespace afc::kv
