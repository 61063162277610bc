// Tests for the real-threads runtime (rt/): these run actual std::thread
// contention against the paper's concurrency structures.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "rt/arena.h"
#include "rt/async_logger.h"
#include "rt/completion_batcher.h"
#include "rt/mpmc_queue.h"
#include "rt/sharded_opqueue.h"
#include "rt/throttle.h"

namespace afc::rt {
namespace {

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 100; i++) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 100; i++) EXPECT_EQ(*q.try_pop(), i);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, BoundedTryPushFailsWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.try_pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpmcQueue, ManyProducersManyConsumersNoLoss) {
  MpmcQueue<std::uint64_t> q(256);
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 20000;
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; p++) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; i++) {
        q.push(std::uint64_t(p) * kPerProducer + std::uint64_t(i));
      }
    });
  }
  for (int c = 0; c < kConsumers; c++) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; p++) threads[std::size_t(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; c++) threads[std::size_t(kProducers + c)].join();
  EXPECT_EQ(count.load(), kProducers * kPerProducer);
  const std::uint64_t n = std::uint64_t(kProducers) * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueue, CloseUnblocksWaiters) {
  MpmcQueue<int> q;
  std::thread waiter([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  waiter.join();
}

TEST(SpscRing, OrderAndCapacity) {
  SpscRing<int> r(8);
  for (int i = 0; i < 8; i++) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(8));
  for (int i = 0; i < 8; i++) EXPECT_EQ(*r.try_pop(), i);
  EXPECT_FALSE(r.try_pop().has_value());
}

TEST(SpscRing, NonPow2CapacityRoundsUp) {
  // A non-pow2 buffer would break the index mask and overwrite live slots;
  // the ring must round the request UP and stay FIFO across wraparound.
  SpscRing<int> r(5);
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 0; i < 8; i++) EXPECT_TRUE(r.try_push(i));
  EXPECT_FALSE(r.try_push(8));
  for (int i = 0; i < 8; i++) EXPECT_EQ(*r.try_pop(), i);
  // Wrap the indices many times past the original request.
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(r.try_push(i));
    ASSERT_EQ(*r.try_pop(), i);
  }
  SpscRing<int> r0(0);  // degenerate request still yields a usable ring
  EXPECT_EQ(r0.capacity(), 1u);
  EXPECT_TRUE(r0.try_push(42));
  EXPECT_FALSE(r0.try_push(43));
  EXPECT_EQ(*r0.try_pop(), 42);
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> r(1024);
  constexpr std::uint64_t kN = 500000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t seen = 0;
    std::uint64_t expect = 0;
    while (seen < kN) {
      if (auto v = r.try_pop()) {
        ASSERT_EQ(*v, expect) << "SPSC order violated";
        expect++;
        sum += *v;
        seen++;
      }
    }
  });
  for (std::uint64_t i = 0; i < kN;) {
    if (r.try_push(i)) i++;
  }
  consumer.join();
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

// ---------------------------------------------------------------------------
// ShardedOpQueue
// ---------------------------------------------------------------------------

TEST(ShardedOpQueue, PendingModePreservesPerKeyOrder) {
  ShardedOpQueue<int> q(2, /*pending_queue=*/true);
  constexpr int kKeys = 8, kOpsPerKey = 500;
  std::vector<std::vector<int>> seen(kKeys);
  std::mutex seen_mu;

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 4; w++) {
    workers.emplace_back([&q, &seen, &seen_mu, w] {
      const unsigned shard = w % 2;
      while (auto claimed = q.pop(shard)) {
        {
          std::lock_guard lk(seen_mu);
          seen[claimed->key].push_back(claimed->op);
        }
        q.complete(claimed->key);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int k = 0; k < kKeys; k++) {
    producers.emplace_back([&q, k] {
      for (int i = 0; i < kOpsPerKey; i++) q.submit(std::uint64_t(k), i);
    });
  }
  for (auto& p : producers) p.join();
  // Wait for drain.
  for (int spin = 0; spin < 1000; spin++) {
    std::size_t total = 0;
    {
      std::lock_guard lk(seen_mu);
      for (const auto& v : seen) total += v.size();
    }
    if (total == std::size_t(kKeys) * kOpsPerKey) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  q.close();
  for (auto& w : workers) w.join();

  for (int k = 0; k < kKeys; k++) {
    ASSERT_EQ(seen[k].size(), std::size_t(kOpsPerKey)) << "key " << k;
    for (int i = 0; i < kOpsPerKey; i++) {
      ASSERT_EQ(seen[k][std::size_t(i)], i) << "per-key order broken, key " << k;
    }
  }
}

TEST(ShardedOpQueue, PendingModeNeverRunsKeyConcurrently) {
  ShardedOpQueue<int> q(1, true);
  std::atomic<int> in_key{0};
  std::atomic<int> max_in_key{0};
  std::atomic<int> done{0};
  constexpr int kOps = 2000;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; w++) {
    workers.emplace_back([&] {
      while (auto c = q.pop(0)) {
        const int now = in_key.fetch_add(1) + 1;
        int prev = max_in_key.load();
        while (now > prev && !max_in_key.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::yield();
        in_key.fetch_sub(1);
        done.fetch_add(1);
        q.complete(c->key);
      }
    });
  }
  for (int i = 0; i < kOps; i++) q.submit(7, i);  // all on one key
  while (done.load() < kOps) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  q.close();
  for (auto& w : workers) w.join();
  EXPECT_EQ(max_in_key.load(), 1);
}

TEST(ShardedOpQueue, CommunityModeHeadOfLineBlocks) {
  ShardedOpQueue<int> q(1, /*pending_queue=*/false);
  // Claim key 1, then queue [key1-op, key2-op]. A worker must NOT receive
  // the key2 op while the key1 head is blocked.
  q.submit(1, 0);
  auto first = q.pop(0);
  ASSERT_TRUE(first.has_value());
  q.submit(1, 1);
  q.submit(2, 2);

  std::atomic<bool> got_any{false};
  std::thread worker([&] {
    auto c = q.pop(0);  // blocks on the busy head
    got_any = true;
    if (c) {
      EXPECT_EQ(c->key, 1u);  // head first, in order
      q.complete(c->key);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(got_any.load());  // HOL blocking in action
  EXPECT_GT(q.hol_blocks(), 0u);
  q.complete(1);
  worker.join();
  EXPECT_TRUE(got_any.load());
  q.close();
}

TEST(ShardedOpQueue, PendingModeServesOtherKeysPastBusyOne) {
  ShardedOpQueue<int> q(1, /*pending_queue=*/true);
  q.submit(1, 0);
  auto first = q.pop(0);  // key 1 busy
  ASSERT_TRUE(first.has_value());
  q.submit(1, 1);  // parked on pending
  q.submit(2, 2);
  auto second = q.pop(0);  // must get key 2 immediately
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->key, 2u);
  EXPECT_EQ(q.deferred(), 1u);
  q.complete(2);
  q.complete(1);  // promotes the parked key-1 op
  auto third = q.pop(0);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->key, 1u);
  EXPECT_EQ(third->op, 1);
  q.complete(1);
  q.close();
}

TEST(ShardedOpQueue, PendingModeCloseDrainsBacklogBehindBusyKey) {
  // Lifecycle contract: close() stops intake but every accepted op — parked
  // ones included — must still be handed out before pop() reports drained.
  ShardedOpQueue<int> q(1, /*pending_queue=*/true);
  q.submit(1, 0);
  auto hostage = q.pop(0);  // key 1 busy across the close
  ASSERT_TRUE(hostage.has_value());
  q.submit(1, 1);  // parked behind the claim
  q.submit(1, 2);  // parked behind the claim
  q.submit(2, 3);  // ready
  q.close();
  EXPECT_FALSE(q.submit(3, 99));  // intake stopped

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, int>> seen;
  std::thread worker([&] {
    while (auto c = q.pop(0)) {
      {
        std::lock_guard lk(mu);
        seen.emplace_back(c->key, c->op);
      }
      q.complete(c->key);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.complete(1);  // release the hostage claim: parked ops surface now
  worker.join();

  ASSERT_EQ(seen.size(), 3u);
  std::vector<int> key1_ops;
  for (auto [k, op] : seen) {
    if (k == 1) key1_ops.push_back(op);
  }
  EXPECT_EQ(key1_ops, (std::vector<int>{1, 2}));  // per-key FIFO survived
}

TEST(ShardedOpQueue, CommunityModeCloseDrainsBacklogBehindBusyKey) {
  // Community mode: a busy head after close() is waited out, not abandoned —
  // the whole backlog must drain once the claimer completes.
  ShardedOpQueue<int> q(1, /*pending_queue=*/false);
  q.submit(1, 0);
  auto hostage = q.pop(0);  // key 1 busy, ops below stack behind it
  ASSERT_TRUE(hostage.has_value());
  q.submit(1, 1);
  q.submit(2, 2);
  q.close();
  EXPECT_FALSE(q.submit(3, 99));

  std::vector<int> seen;
  std::thread worker([&] {
    while (auto c = q.pop(0)) {
      seen.push_back(c->op);
      q.complete(c->key);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.complete(1);
  worker.join();
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));  // global FIFO, nothing lost
}

// ---------------------------------------------------------------------------
// AsyncLogger
// ---------------------------------------------------------------------------

TEST(AsyncLogger, BlockingModeWritesEverything) {
  AsyncLogger::Config cfg;
  cfg.nonblocking = false;
  AsyncLogger log(cfg);
  for (int i = 0; i < 1000; i++) log.log("op dispatched pg", std::uint64_t(i));
  log.shutdown();
  EXPECT_EQ(log.submitted(), 1000u);
  EXPECT_EQ(log.written(), 1000u);
  EXPECT_EQ(log.dropped(), 0u);
  auto recent = log.recent(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0], "op dispatched pg 999");
}

TEST(AsyncLogger, NonBlockingDropsInsteadOfStalling) {
  AsyncLogger::Config cfg;
  cfg.nonblocking = true;
  cfg.writer_threads = 1;
  cfg.queue_capacity = 16;  // tiny: force overflow under a burst
  AsyncLogger log(cfg);
  for (int i = 0; i < 100000; i++) log.log("burst entry", std::uint64_t(i));
  log.shutdown();
  EXPECT_EQ(log.submitted(), 100000u);
  EXPECT_EQ(log.written() + log.dropped(), 100000u);
  EXPECT_GT(log.dropped(), 0u);  // the documented trade-off
}

TEST(AsyncLogger, LogCacheInternsTemplates) {
  AsyncLogger::Config cfg;
  cfg.nonblocking = true;
  cfg.use_log_cache = true;
  cfg.queue_capacity = 1 << 16;
  AsyncLogger log(cfg);
  for (int i = 0; i < 5000; i++) log.log("same template", std::uint64_t(i));
  log.shutdown();
  EXPECT_GE(log.cache_hits(), 4999u);
  auto recent = log.recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].rfind("same template", 0), 0u);  // formatted from cache
}

TEST(AsyncLogger, MultiThreadedProducersNonBlocking) {
  AsyncLogger::Config cfg;
  cfg.nonblocking = true;
  cfg.writer_threads = 2;
  cfg.queue_capacity = 1 << 15;
  AsyncLogger log(cfg);
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; t++) {
    producers.emplace_back([&log, t] {
      for (int i = 0; i < 10000; i++) {
        log.log("thread entry", std::uint64_t(t) * 100000 + std::uint64_t(i));
      }
    });
  }
  for (auto& p : producers) p.join();
  log.shutdown();
  EXPECT_EQ(log.submitted(), 40000u);
  EXPECT_EQ(log.written() + log.dropped(), 40000u);
}

// ---------------------------------------------------------------------------
// Throttle
// ---------------------------------------------------------------------------

TEST(Throttle, CapsConcurrency) {
  Throttle t(4);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  // Hold every unit while the workers start, so at least one of them must
  // block however slowly the threads come up (under TSan they can start
  // one at a time and never meet otherwise).
  ASSERT_TRUE(t.acquire(4));
  for (int i = 0; i < 16; i++) {
    threads.emplace_back([&] {
      ASSERT_TRUE(t.acquire());
      const int now = inside.fetch_add(1) + 1;
      int prev = max_inside.load();
      while (now > prev && !max_inside.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
      t.release();
    });
  }
  while (t.blocked_acquires() == 0) std::this_thread::yield();
  t.release(4);
  for (auto& th : threads) th.join();
  EXPECT_LE(max_inside.load(), 4);
  EXPECT_GT(t.blocked_acquires(), 0u);
  EXPECT_EQ(t.in_use(), 0u);
}

TEST(Throttle, WeightedAcquire) {
  Throttle t(10);
  EXPECT_TRUE(t.try_acquire(8));
  EXPECT_FALSE(t.try_acquire(3));
  EXPECT_TRUE(t.try_acquire(2));
  t.release(10);
  EXPECT_EQ(t.in_use(), 0u);
}

TEST(Throttle, CapacityGrowthWakesWaiters) {
  Throttle t(1);
  ASSERT_TRUE(t.try_acquire(1));
  std::atomic<bool> got{false};
  std::thread waiter([&] {
    ASSERT_TRUE(t.acquire(2));
    got = true;
    t.release(2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  t.set_capacity(8);  // the paper's SSD re-tuning
  waiter.join();
  EXPECT_TRUE(got.load());
}

TEST(Throttle, ShutdownReleasesWaiters) {
  Throttle t(1);
  ASSERT_TRUE(t.acquire(1));
  std::thread waiter([&] { EXPECT_FALSE(t.acquire(1)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  t.shutdown();
  waiter.join();
}

// ---------------------------------------------------------------------------
// CompletionBatcher
// ---------------------------------------------------------------------------

TEST(CompletionBatcher, DeliversAllGroupedByKey) {
  std::mutex mu;
  std::map<std::uint64_t, std::vector<std::uint64_t>> got;
  CompletionBatcher batcher([&](std::uint64_t key, const std::vector<std::uint64_t>& vals) {
    std::lock_guard lk(mu);
    auto& v = got[key];
    v.insert(v.end(), vals.begin(), vals.end());
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; t++) {
    producers.emplace_back([&batcher, t] {
      for (int i = 0; i < 5000; i++) {
        batcher.submit(std::uint64_t(t % 3), std::uint64_t(t) * 10000 + std::uint64_t(i));
      }
    });
  }
  for (auto& p : producers) p.join();
  batcher.shutdown();
  std::size_t total = 0;
  for (const auto& [k, v] : got) {
    EXPECT_LT(k, 3u);
    total += v.size();
  }
  EXPECT_EQ(total, 20000u);
  EXPECT_EQ(batcher.submitted(), 20000u);
}

TEST(CompletionBatcher, BatchesUnderLoad) {
  CompletionBatcher batcher([](std::uint64_t, const std::vector<std::uint64_t>&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));  // slow consumer
  });
  for (int i = 0; i < 2000; i++) batcher.submit(std::uint64_t(i % 5), std::uint64_t(i));
  batcher.shutdown();
  // With a slow consumer, submissions pile up and drain in batches: far
  // fewer callback rounds than submissions.
  EXPECT_LT(batcher.rounds(), 1000u);
  EXPECT_GT(batcher.max_batch(), 4u);
}

TEST(CompletionBatcher, PerKeyValuesStayOrderedFromOneProducer) {
  std::vector<std::uint64_t> seen;
  CompletionBatcher batcher([&](std::uint64_t, const std::vector<std::uint64_t>& vals) {
    seen.insert(seen.end(), vals.begin(), vals.end());
  });
  for (int i = 0; i < 10000; i++) batcher.submit(1, std::uint64_t(i));
  batcher.shutdown();
  ASSERT_EQ(seen.size(), 10000u);
  for (int i = 0; i < 10000; i++) ASSERT_EQ(seen[std::size_t(i)], std::uint64_t(i));
}

TEST(CompletionBatcher, SubmitAfterShutdownRollsBackCounter) {
  // submitted() is exact: a rejected submit must leave no trace, or the
  // "callbacks <= submitted" invariant drifts and rest-state accounting
  // (submitted == callbacks-delivered values) breaks.
  CompletionBatcher b([](std::uint64_t, const std::vector<std::uint64_t>&) {});
  EXPECT_TRUE(b.submit(1, 10));
  b.shutdown();
  EXPECT_FALSE(b.submit(1, 11));
  EXPECT_EQ(b.submitted(), 1u);
  EXPECT_EQ(b.callbacks(), 1u);
}

TEST(CompletionBatcher, CallbacksNeverExceedSubmittedUnderConcurrency) {
  // Both from inside the callback (values delivered so far vs submitted())
  // and from a sampling observer, the counters must never cross: submit
  // increments BEFORE the record is visible to the worker.
  std::atomic<CompletionBatcher*> self{nullptr};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> violated{false};
  CompletionBatcher b([&](std::uint64_t, const std::vector<std::uint64_t>& vals) {
    const std::uint64_t d = delivered.fetch_add(vals.size()) + vals.size();
    auto* bp = self.load();
    if (bp != nullptr && d > bp->submitted()) violated = true;
  });
  self = &b;
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    while (!stop.load()) {
      if (b.callbacks() > b.submitted()) violated = true;
    }
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; t++) {
    producers.emplace_back([&b, t] {
      for (int i = 0; i < 20000; i++) {
        b.submit(std::uint64_t(t), std::uint64_t(i));
      }
    });
  }
  for (auto& p : producers) p.join();
  b.shutdown();
  stop = true;
  observer.join();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(b.submitted(), 40000u);
  EXPECT_EQ(delivered.load(), 40000u);
}

// ---------------------------------------------------------------------------
// Arena allocator
// ---------------------------------------------------------------------------

TEST(Arena, AllocateWriteFreeRoundTrip) {
  Arena arena;
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t sz : {1u, 16u, 17u, 100u, 4096u}) {
    void* p = arena.allocate(sz);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, sz);
    blocks.emplace_back(p, sz);
  }
  for (auto [p, sz] : blocks) arena.deallocate(p, sz);
  EXPECT_GT(arena.slab_bytes(), 0u);
}

TEST(Arena, LargeAllocationsFallThrough) {
  Arena arena;
  void* p = arena.allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 1 << 20);
  arena.deallocate(p, 1 << 20);
}

TEST(Arena, RecyclesFreedBlocks) {
  Arena arena;
  // Warm the thread cache past the refill batch, then churn: slab usage
  // must stop growing once the free lists can satisfy everything.
  std::vector<void*> ps;
  for (int i = 0; i < 64; i++) ps.push_back(arena.allocate(64));
  for (void* p : ps) arena.deallocate(p, 64);
  const auto slabs_before = arena.slab_bytes();
  for (int round = 0; round < 1000; round++) {
    void* p = arena.allocate(64);
    arena.deallocate(p, 64);
  }
  EXPECT_EQ(arena.slab_bytes(), slabs_before);
}

TEST(Arena, ManyThreadsNoCorruption) {
  Arena arena;
  constexpr int kThreads = 4, kRounds = 20000;
  std::atomic<bool> corrupt{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&arena, &corrupt, t] {
      std::vector<std::pair<unsigned char*, std::size_t>> live;
      for (int i = 0; i < kRounds; i++) {
        const std::size_t sz = 16 + std::size_t(i * 7 + t) % 512;
        auto* p = static_cast<unsigned char*>(arena.allocate(sz));
        p[0] = static_cast<unsigned char>(t);
        p[sz - 1] = static_cast<unsigned char>(i);
        live.emplace_back(p, sz);
        if (live.size() > 32) {
          auto [q, qsz] = live.front();
          live.erase(live.begin());
          arena.deallocate(q, qsz);
        }
      }
      for (auto [p, sz] : live) {
        if (p[0] != static_cast<unsigned char>(t)) corrupt = true;
        arena.deallocate(p, sz);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_GT(arena.central_refills(), 0u);
}

TEST(Arena, CrossThreadFree) {
  Arena arena;
  MpmcQueue<void*> handoff(1024);
  std::thread alloc_thread([&] {
    for (int i = 0; i < 10000; i++) handoff.push(arena.allocate(128));
    handoff.close();
  });
  std::thread free_thread([&] {
    while (auto p = handoff.pop()) arena.deallocate(*p, 128);
  });
  alloc_thread.join();
  free_thread.join();
  // If cross-thread frees corrupted the lists, further use would crash.
  void* p = arena.allocate(128);
  EXPECT_NE(p, nullptr);
  arena.deallocate(p, 128);
}

TEST(Arena, TwoArenasAreIndependent) {
  auto a = std::make_unique<Arena>();
  void* pa = a->allocate(64);
  a->deallocate(pa, 64);
  a.reset();  // destroy first arena
  Arena b;    // may reuse the same address
  void* pb = b.allocate(64);
  ASSERT_NE(pb, nullptr);
  std::memset(pb, 7, 64);
  b.deallocate(pb, 64);
}

}  // namespace
}  // namespace afc::rt
