// Tests for common/: RNG, histogram, time series, payloads, interning,
// counters, table rendering.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32c.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/id_map.h"
#include "common/interned.h"
#include "common/payload.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timeseries.h"

namespace afc {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; i++) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; i++) {
    const auto v = r.uniform_int(3, 10);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 10u);
    saw_lo |= v == 3;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng r(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; i++) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng r(13);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) counts[r.zipf(1000, 0.9)]++;
  EXPECT_GT(counts[0], counts[500] * 5);
  for (const auto& [rank, n] : counts) ASSERT_LT(rank, 1000u);
}

TEST(Rng, ZipfThetaZeroIsUniform) {
  Rng r(17);
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < 30000; i++) counts[r.zipf(10, 0.0)]++;
  for (int k = 0; k < 10; k++) EXPECT_NEAR(counts[std::uint64_t(k)], 3000, 400);
}

// Draws captured before zipf's normalization moved into the process-wide
// table: the memoized constants must leave every draw bit-identical, and
// a stream's draws must not depend on which Rng filled the table first.
TEST(Rng, ZipfDrawsMatchGoldenWhicheverStreamFilledTheTable) {
  const std::vector<std::uint64_t> golden_a = {7, 151, 430602, 13638, 3928173, 23222, 458809, 3079};
  const std::vector<std::uint64_t> golden_b = {403, 285, 793, 74, 7, 154, 1, 0};
  Rng other(99);
  (void)other.zipf(1000, 0.99);  // another stream fills (1000, 0.99) first
  Rng a(7);
  Rng b(11);
  std::vector<std::uint64_t> got_a, got_b;
  for (int i = 0; i < 8; i++) {
    got_a.push_back(a.zipf(5242880, 0.9));  // a 20 GiB image in 4 KiB blocks
    got_b.push_back(b.zipf(1000, 0.99));
  }
  EXPECT_EQ(got_a, golden_a);
  EXPECT_EQ(got_b, golden_b);
  Rng a2(7);
  for (std::uint64_t want : golden_a) EXPECT_EQ(a2.zipf(5242880, 0.9), want);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(21);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.next() == b.next()) same++;
  }
  EXPECT_LT(same, 2);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  h.record(5);
  h.record(5);
  h.record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_NEAR(h.mean(), 17.0 / 3.0, 1e-9);
  EXPECT_EQ(h.percentile(0.0), 5u);
  EXPECT_EQ(h.percentile(1.0), 7u);
}

TEST(Histogram, PercentileAccuracyWithinBucketError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; v++) h.record(v);
  // Log-linear buckets guarantee ~1/64 relative error.
  EXPECT_NEAR(double(h.percentile(0.5)), 50000.0, 50000.0 / 32.0);
  EXPECT_NEAR(double(h.percentile(0.99)), 99000.0, 99000.0 / 32.0);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  Rng r(3);
  for (int i = 0; i < 1000; i++) {
    const auto v = r.uniform_int(1, 1000000);
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.percentile(0.9), combined.percentile(0.9));
}

TEST(Histogram, ClearResets) {
  Histogram h;
  h.record(100);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(Histogram, HugeValues) {
  Histogram h;
  const std::uint64_t big = 1ull << 62;
  h.record(big);
  EXPECT_NEAR(double(h.percentile(0.5)), double(big), double(big) / 32.0);
}

// The histogram as it was before it stored only its recorded groups: every
// bucket of every magnitude group, zero-filled at construction.
class DenseHistogram {
 public:
  void record_n(std::uint64_t value, std::uint64_t n) {
    if (n == 0) return;
    buckets_[index(value)] += n;
    count_ += n;
    sum_ += value * n;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }
  void merge(const DenseHistogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); i++) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.count_) {
      if (o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
  }
  void clear() { *this = DenseHistogram(); }
  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const auto target = std::uint64_t(q * double(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); i++) {
      seen += buckets_[i];
      if (seen >= target) return midpoint(i);
    }
    return max_;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 64) return std::size_t(v);
    const int magnitude = std::bit_width(v) - 6;
    return std::size_t(magnitude) * 64 + std::size_t(v >> magnitude);
  }
  static std::uint64_t midpoint(std::size_t i) {
    const std::size_t magnitude = i / 64;
    const std::uint64_t sub = i % 64;
    if (magnitude == 0) return sub;
    return (sub << magnitude) + ((1ull << magnitude) >> 1);
  }
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(59 * 64, 0);
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

// Storing only the recorded groups changes no answer: records across the
// whole 64-bit range, merges of disjoint and overlapping windows in both
// directions, self-merges and clears, each checked against the dense
// histogram at many quantiles.
TEST(Histogram, LazyGroupsMatchDenseReference) {
  constexpr int kHists = 3;
  Histogram lazy[kHists];
  DenseHistogram dense[kHists];
  Rng rng(25);
  std::vector<double> qs = {0.0, 1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};
  for (int i = 0; i < 40; i++) qs.push_back(rng.uniform());
  int step = 0;
  const auto check = [&] {
    step++;
    for (int h = 0; h < kHists; h++) {
      ASSERT_EQ(lazy[h].count(), dense[h].count()) << "step " << step << " hist " << h;
      ASSERT_EQ(lazy[h].min(), dense[h].min()) << "step " << step;
      ASSERT_EQ(lazy[h].max(), dense[h].max()) << "step " << step;
      ASSERT_EQ(lazy[h].mean(), dense[h].mean()) << "step " << step;
      for (double q : qs) {
        ASSERT_EQ(lazy[h].percentile(q), dense[h].percentile(q)) << "step " << step << " q " << q;
      }
    }
  };
  // A value of magnitude group in [lo, hi] (group 0 holds 0..63).
  const auto value_in = [&](unsigned lo, unsigned hi) -> std::uint64_t {
    const auto g = unsigned(rng.uniform_int(lo, hi));
    if (g == 0) return rng.uniform_int(0, 63);
    return (rng.next() | (1ull << 63)) >> (58 - g);
  };
  const auto record = [&](int h, std::uint64_t v, std::uint64_t n) {
    lazy[h].record_n(v, n);
    dense[h].record_n(v, n);
  };
  const auto merge = [&](int into, int from) {
    lazy[into].merge(lazy[from]);
    dense[into].merge(dense[from]);
  };
  const auto clear = [&](int h) {
    lazy[h].clear();
    dense[h].clear();
  };

  check();  // empty histograms
  merge(0, 1);  // empty into empty
  check();
  // Disjoint windows, the lower merged into the higher and back.
  for (int i = 0; i < 50; i++) record(0, value_in(2, 6), 1);
  for (int i = 0; i < 50; i++) record(1, value_in(30, 40), 1 + rng.uniform_int(0, 3));
  check();
  merge(1, 0);  // widens downwards
  check();
  for (int i = 0; i < 50; i++) record(2, value_in(50, 58), 1);
  merge(0, 2);  // widens upwards past a gap
  check();
  // Overlapping windows in both directions, then self-merges.
  for (int i = 0; i < 50; i++) record(2, value_in(35, 55), 2);
  merge(2, 1);
  check();
  merge(1, 2);
  check();
  merge(1, 1);
  check();
  clear(0);
  check();
  merge(2, 0);  // an empty histogram merged in
  check();
  merge(0, 2);  // into a cleared one
  check();

  for (int round = 0; round < 2000; round++) {
    const int h = int(rng.uniform_int(0, kHists - 1));
    switch (rng.uniform_int(0, 9)) {
      case 0:
        merge(h, int(rng.uniform_int(0, kHists - 1)));
        break;
      case 1:
        if (rng.chance(0.2)) clear(h);
        break;
      case 2:
        record(h, rng.next(), rng.uniform_int(0, 4));
        break;
      default: {
        const auto lo = unsigned(rng.uniform_int(0, 58));
        record(h, value_in(lo, std::min(58u, lo + 6)), 1);
      }
    }
    check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  record(0, 0, 1);
  record(0, ~0ull, 1);
  check();
}

// Random pushes and pops against std::deque: bursts grow the ring while
// its live range wraps, and a drained ring keeps its slots.
TEST(RingQueue, MatchesDequeAcrossWrapAndGrowth) {
  RingQueue<std::string> q;
  EXPECT_EQ(q.slots(), 0u);  // nothing allocated before the first push
  std::deque<std::string> ref;
  q.push_back("first");
  ref.push_back("first");
  EXPECT_EQ(q.slots(), 1u);  // then one slot, doubling when full
  Rng rng(31);
  int next = 0;
  std::size_t max_size = 0;
  for (int round = 0; round < 2000; round++) {
    const auto pushes = rng.uniform_int(0, round % 97 == 96 ? 60 : 5);
    for (std::uint64_t i = 0; i < pushes; i++) {
      const std::string n = std::to_string(next++);
      const std::string v = "item-" + n;
      q.push_back(v);
      ref.push_back(v);
    }
    max_size = std::max(max_size, ref.size());
    const auto pops = rng.uniform_int(0, 6);
    for (std::uint64_t i = 0; i < pops && !ref.empty(); i++) {
      ASSERT_EQ(q.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
  }
  const std::size_t slots = q.slots();
  EXPECT_GE(slots, max_size);
  EXPECT_LT(slots, 2 * max_size);        // doubles only when full
  EXPECT_EQ(slots & (slots - 1), 0u);  // a power of two
  while (!ref.empty()) {
    ASSERT_EQ(q.pop_front(), ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slots(), slots);
}

TEST(TimeSeries, RatesPerInterval) {
  TimeSeries ts(100 * kMillisecond);
  for (int i = 0; i < 50; i++) ts.add(Time(i) * 10 * kMillisecond);  // 0..490ms
  ASSERT_EQ(ts.size(), 5u);
  for (std::size_t i = 0; i < 5; i++) EXPECT_DOUBLE_EQ(ts.rate(i), 100.0);  // 10/100ms
  EXPECT_DOUBLE_EQ(ts.mean_rate(0, 5), 100.0);
  EXPECT_NEAR(ts.cov(0, 5), 0.0, 1e-12);
}

TEST(TimeSeries, CovDetectsFluctuation) {
  TimeSeries steady(100 * kMillisecond), bursty(100 * kMillisecond);
  for (int b = 0; b < 10; b++) {
    for (int i = 0; i < 10; i++) steady.add(Time(b) * 100 * kMillisecond + 1);
    const int n = (b % 2 == 0) ? 19 : 1;
    for (int i = 0; i < n; i++) bursty.add(Time(b) * 100 * kMillisecond + 1);
  }
  EXPECT_LT(steady.cov(0, 10), 0.01);
  EXPECT_GT(bursty.cov(0, 10), 0.5);
}

TEST(Payload, VirtualMaterializeDeterministic) {
  auto p = Payload::pattern(64, 42);
  auto a = p.materialize();
  auto b = p.materialize();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_NE(a, Payload::pattern(64, 43).materialize());
}

TEST(Payload, SliceOfVirtualMatchesMaterializedSlice) {
  auto p = Payload::pattern(4096, 7);
  auto full = p.materialize();
  auto s = p.slice(100, 200);
  EXPECT_TRUE(s.is_virtual());  // O(1) slice
  auto sm = s.materialize();
  ASSERT_EQ(sm.size(), 200u);
  for (int i = 0; i < 200; i++) EXPECT_EQ(sm[std::size_t(i)], full[std::size_t(100 + i)]);
}

TEST(Payload, SliceClampsAtEnd) {
  auto p = Payload::pattern(100, 1);
  EXPECT_EQ(p.slice(90, 50).size(), 10u);
  EXPECT_EQ(p.slice(200, 50).size(), 0u);
}

TEST(Payload, RealBytesRoundTrip) {
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  auto p = Payload::bytes(data);
  EXPECT_FALSE(p.is_virtual());
  EXPECT_EQ(p.materialize(), data);
  EXPECT_TRUE(p.content_equals(Payload::bytes(data)));
}

TEST(Payload, ContentEqualsAcrossRepresentations) {
  auto v = Payload::pattern(256, 99);
  auto r = Payload::bytes(v.materialize());
  EXPECT_TRUE(v.content_equals(r));
  EXPECT_TRUE(r.content_equals(v));
  EXPECT_FALSE(v.content_equals(Payload::pattern(256, 100)));
}

TEST(Payload, FingerprintIdentity) {
  EXPECT_EQ(Payload::pattern(4096, 5).fingerprint(), Payload::pattern(4096, 5).fingerprint());
  EXPECT_NE(Payload::pattern(4096, 5).fingerprint(), Payload::pattern(4096, 6).fingerprint());
  EXPECT_NE(Payload::pattern(4096, 5).fingerprint(),
            Payload::pattern(8192, 5).fingerprint());
  // Same-content real payloads hash equal.
  auto a = Payload::bytes({9, 8, 7});
  auto b = Payload::bytes({9, 8, 7});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(InternPool, IdempotentIds) {
  InternPool pool;
  const auto a = pool.intern("osd: dispatch op");
  const auto b = pool.intern("osd: journal write");
  const auto a2 = pool.intern("osd: dispatch op");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.lookup(a), "osd: dispatch op");
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(InternPool, FindDoesNotInsert) {
  InternPool pool;
  InternPool::Id id;
  EXPECT_FALSE(pool.find("missing", id));
  pool.intern("present");
  EXPECT_TRUE(pool.find("present", id));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(InternPool, HashIsStdHashOfTheBytes) {
  InternPool pool;
  const std::vector<std::string> names = {"", "a", "rbd_data.vm12.000000000abc",
                                          std::string(300, 'x')};
  for (const std::string& s : names) {
    EXPECT_EQ(pool.hash(pool.intern(s)), std::hash<std::string>{}(s)) << s;
  }
}

TEST(InternPool, OneHandlePerDistinctString) {
  InternPool pool;
  std::map<std::string, InternPool::Id> ref;
  Rng rng(3);
  for (int i = 0; i < 20000; i++) {
    // Names of 0..70 bytes plus a few that get an arena block of their own.
    const std::size_t len = rng.chance(0.01) ? 20000 : rng.uniform_int(0, 70);
    std::string s(len, 'a');
    for (auto& c : s) c = char('a' + rng.uniform_int(0, 2));
    const InternPool::Id id = pool.intern(s);
    auto [it, inserted] = ref.try_emplace(s, id);
    EXPECT_EQ(it->second, id) << s;
  }
  EXPECT_EQ(pool.size(), ref.size());
  std::set<InternPool::Id> ids;
  for (const auto& [s, id] : ref) {
    EXPECT_EQ(pool.lookup(id), s);
    InternPool::Id found;
    ASSERT_TRUE(pool.find(s, found));
    EXPECT_EQ(found, id);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), ref.size());
}

TEST(Counters, AddAndQuery) {
  Counters c;
  c.add("x");
  c.add("x", 4);
  c.add("y", 2);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("y"), 2u);
  EXPECT_EQ(c.get("z"), 0u);
  c.clear();
  EXPECT_EQ(c.get("x"), 0u);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "iops"});
  t.row({"community", "16.0K"});
  t.row({"afceph", "81.3K"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("81.3K"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // 4 lines: header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Histogram, RecordNBulk) {
  Histogram h;
  h.record_n(1000, 500);
  h.record_n(2000, 500);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 1500.0, 40.0);
  h.record_n(5, 0);  // no-op
  EXPECT_EQ(h.count(), 1000u);
}

TEST(TimeSeries, ToStringRendersRates) {
  TimeSeries ts(100 * kMillisecond);
  for (int i = 0; i < 30; i++) ts.add(Time(i) * 10 * kMillisecond);
  const auto s1 = ts.to_string();
  EXPECT_NE(s1.find("t=0.0s"), std::string::npos);
  EXPECT_NE(s1.find("100"), std::string::npos);
  const auto s2 = ts.to_string(3);
  EXPECT_LT(s2.size(), s1.size());
}

TEST(Payload, ZerosAndEmpty) {
  auto z = Payload::zeros(16);
  EXPECT_TRUE(z.is_virtual());
  EXPECT_EQ(z.size(), 16u);
  Payload empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.materialize().empty());
  EXPECT_TRUE(empty.content_equals(Payload::pattern(0, 9)));
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::kiops(81300), "81.3K");
  EXPECT_EQ(Table::kiops(950), "950");
}

TEST(Crc32c, MatchesRfc3720TestVectors) {
  // iSCSI CRC32C test vectors (RFC 3720 §B.4).
  std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  std::vector<std::uint8_t> asc(32), desc(32);
  for (int i = 0; i < 32; i++) {
    asc[std::size_t(i)] = std::uint8_t(i);
    desc[std::size_t(i)] = std::uint8_t(31 - i);
  }
  EXPECT_EQ(crc32c(asc.data(), asc.size()), 0x46DD794Eu);
  EXPECT_EQ(crc32c(desc.data(), desc.size()), 0x113FDB5Cu);

  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalFeedEqualsOneShot) {
  std::vector<std::uint8_t> buf(257);
  for (std::size_t i = 0; i < buf.size(); i++) buf[i] = std::uint8_t(i * 31 + 7);
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (std::size_t split : {std::size_t(0), std::size_t(1), std::size_t(100), buf.size()}) {
    const std::uint32_t head = crc32c(buf.data(), split);
    EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, head), whole) << split;
  }
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_NE(whole, crc32c(buf.data(), buf.size() - 1));  // length-sensitive
}

TEST(Crc32c, SlicingMatchesBitwiseDefinition) {
  // The polynomial division itself, one bit at a time.
  auto bitwise = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; i++) {
      c ^= p[i];
      for (int k = 0; k < 8; k++) c = (c & 1) ? (c >> 1) ^ 0x82F63B78u : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(3720);
  std::vector<std::uint8_t> buf(300 + 8);
  for (auto& b : buf) b = std::uint8_t(rng.next());
  for (std::size_t len = 0; len <= 300; len++) {
    for (std::size_t start = 0; start < 8; start++) {  // every alignment
      const std::uint8_t* p = buf.data() + start;
      ASSERT_EQ(crc32c(p, len), bitwise(p, len)) << "len " << len << " start " << start;
    }
  }
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Payload, IsA32ByteValueType) {
  static_assert(sizeof(Payload) == 32);
  std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  Payload a = Payload::bytes(data);
  Payload b = a;  // shares the bytes
  Payload c = std::move(a);
  EXPECT_TRUE(b.content_equals(c));
  EXPECT_EQ(b.materialize(), data);
  b = Payload::pattern(5, 1);  // reassignment leaves the other copy alone
  EXPECT_TRUE(b.is_virtual());
  EXPECT_FALSE(c.is_virtual());
  EXPECT_EQ(c.materialize(), data);
  c = c;
  EXPECT_EQ(c.slice(1, 3).materialize(), (std::vector<std::uint8_t>{2, 3, 4}));
}

// FlatMap against std::map on random op sequences over a small key space,
// so hits, misses, overwrites and erases all occur.
template <class K>
void flat_map_matches_std_map(std::uint64_t seed, K (*key)(std::uint64_t)) {
  FlatMap<K, int> flat;
  std::map<K, int> ref;
  Rng rng(seed);
  for (int step = 0; step < 4000; step++) {
    const K k = key(rng.uniform_int(0, 40));
    const int v = int(rng.uniform_int(0, 1000));
    switch (rng.uniform_int(0, 4)) {
      case 0: {  // emplace never overwrites
        auto [fit, fins] = flat.emplace(k, v);
        auto [rit, rins] = ref.emplace(k, v);
        ASSERT_EQ(fins, rins);
        ASSERT_EQ(fit->second, rit->second);
        break;
      }
      case 1:
        flat[k] = v;
        ref[k] = v;
        break;
      case 2: {
        auto fit = flat.find(k);
        auto rit = ref.find(k);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (fit != flat.end()) {
          ASSERT_EQ(fit->second, rit->second);
          auto fnext = flat.erase(fit);
          auto rnext = ref.erase(rit);
          ASSERT_EQ(fnext == flat.end(), rnext == ref.end());
          if (fnext != flat.end()) {
            ASSERT_EQ(fnext->first, rnext->first);
          }
        }
        break;
      }
      default: {
        auto fit = flat.lower_bound(k);
        auto rit = ref.lower_bound(k);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (fit != flat.end()) {
          ASSERT_EQ(fit->first, rit->first);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
    ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin(), ref.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first && a.second == b.second;
                           }))
        << "step " << step;
  }
}

TEST(FlatMap, MatchesStdMapOnRandomOps) {
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    flat_map_matches_std_map<std::uint64_t>(seed, [](std::uint64_t i) { return i * 4096; });
    flat_map_matches_std_map<std::string>(seed, [](std::uint64_t i) { return std::to_string(i); });
  }
}

// Every entry of `m` equals `ref`, and iteration visits each exactly once.
template <class V>
void expect_id_map_equals(const IdMap<V>& m, const std::unordered_map<std::uint64_t, V>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  std::size_t visited = 0;
  for (const auto& [k, v] : m) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << "key " << k;
    ASSERT_EQ(v, it->second) << "key " << k;
    visited++;
  }
  ASSERT_EQ(visited, ref.size());
  for (const auto& [k, v] : ref) {
    const V* found = m.find(k);
    ASSERT_NE(found, nullptr) << "key " << k;
    ASSERT_EQ(*found, v) << "key " << k;
  }
}

// IdMap against std::unordered_map on random op sequences over a small key
// space (hits, misses, overwrites and erases all occur), crossing growth.
TEST(IdMap, MatchesStdUnorderedMapOnRandomOps) {
  for (std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    IdMap<int> m;
    std::unordered_map<std::uint64_t, int> ref;
    Rng rng(seed);
    const std::uint64_t span = seed == 3 ? 400 : 40;
    for (int step = 0; step < 4000; step++) {
      // Sparse keys: op-id-like values (client << 24 | seq) and small ids.
      const std::uint64_t raw = rng.uniform_int(0, span);
      const std::uint64_t k = (raw % 2 == 0) ? raw : ((raw % 7) << 24) | raw;
      const int v = int(rng.uniform_int(0, 1000));
      switch (rng.uniform_int(0, 3)) {
        case 0:  // emplace never overwrites
          ASSERT_EQ(m.emplace(k, v), ref.emplace(k, v).second);
          break;
        case 1:
          m[k] = v;
          ref[k] = v;
          break;
        case 2:
          ASSERT_EQ(m.erase(k), ref.erase(k) == 1);
          break;
        default:
          ASSERT_EQ(m.find(k) != nullptr, ref.count(k) == 1);
          break;
      }
      ASSERT_EQ(m.size(), ref.size()) << "step " << step;
      if (step % 97 == 0) expect_id_map_equals(m, ref);
    }
    expect_id_map_equals(m, ref);
    m.clear();
    ref.clear();
    expect_id_map_equals(m, ref);
    m[7] = 1;  // usable after clear
    EXPECT_EQ(*m.find(7), 1);
  }
}

// Keys chosen so their home slots (in the first, 16-slot table) are 14, 15
// and 0: they share homes and their probe run wraps past the table's end.
// Every erase order must leave every remaining key reachable, which only
// holds if backward-shift delete moves the right entries into each hole.
TEST(IdMap, SharedHomesAndWrappedRunsSurviveEveryEraseOrder) {
  std::vector<std::uint64_t> keys;
  const auto pick = [&keys](std::uint32_t home, int count) {
    for (std::uint64_t k = 0; count > 0; k++) {
      if ((IdMap<int>::hash(k) & 15u) == home &&
          std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
        count--;
      }
    }
  };
  pick(15, 4);
  pick(14, 2);
  pick(0, 3);
  pick(1, 2);
  ASSERT_EQ(keys.size(), 11u);  // 11 of 16 slots: still below 3/4 load, no growth

  for (std::uint64_t seed = 1; seed <= 200; seed++) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<std::uint64_t> order = keys;
    for (std::size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
    }
    IdMap<int> m;
    std::unordered_map<std::uint64_t, int> ref;
    for (std::uint64_t k : order) {  // insertion order decides who sits where
      m[k] = int(k % 1000);
      ref[k] = int(k % 1000);
    }
    expect_id_map_equals(m, ref);
    for (std::size_t i = order.size(); i > 1; i--) {
      std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
    }
    for (std::uint64_t k : order) {
      ASSERT_TRUE(m.erase(k));
      ASSERT_FALSE(m.erase(k));
      ref.erase(k);
      expect_id_map_equals(m, ref);
      ASSERT_EQ(m.find(k), nullptr);
    }
  }
}

// Growth moves entries: move-only values must arrive intact, and erase
// releases what a value owns.
TEST(IdMap, GrowsWhileHoldingMoveOnlyValues) {
  IdMap<std::unique_ptr<std::uint64_t>> m;
  auto alive = std::make_shared<int>(0);
  for (std::uint64_t k = 0; k < 3000; k++) {
    ASSERT_TRUE(m.emplace(k * 4096, std::make_unique<std::uint64_t>(k)));
    ASSERT_FALSE(m.emplace(k * 4096, std::make_unique<std::uint64_t>(k + 1)));
  }
  ASSERT_EQ(m.size(), 3000u);
  for (std::uint64_t k = 0; k < 3000; k++) {
    const std::unique_ptr<std::uint64_t>* v = m.find(k * 4096);
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(**v, k);
  }
  for (std::uint64_t k = 0; k < 3000; k += 2) ASSERT_TRUE(m.erase(k * 4096));
  std::uint64_t sum = 0;
  for (const auto& [k, v] : m) {
    ASSERT_EQ(k, *v * 4096);
    sum += *v;
  }
  EXPECT_EQ(sum, 1500ull * 1500ull);  // 1 + 3 + ... + 2999
  EXPECT_EQ(m.find(0), nullptr);

  IdMap<std::shared_ptr<int>> owners;
  owners[1] = alive;
  EXPECT_EQ(alive.use_count(), 2);
  owners.erase(1);
  EXPECT_EQ(alive.use_count(), 1);
}

}  // namespace
}  // namespace afc
