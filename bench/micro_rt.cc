// google-benchmark microbenchmarks of the real-threads implementations of
// the paper's mechanisms (§3.1-§3.3): sharded op queue with/without pending
// queues, blocking vs non-blocking logger (with/without log cache),
// throttle, completion batcher, the underlying queues, and the
// thread-caching arena allocator.
//
// NOTE: on a single-core host the thread-contention contrasts compress
// (threads serialize, so head-of-line blocking and blocking-logger handoff
// cost little wall time); run on a multi-core machine to see the paper's
// gaps. The numbers are still useful as absolute per-op costs.

#include <benchmark/benchmark.h>

#include <thread>

#include "rt/arena.h"
#include "rt/async_logger.h"
#include "rt/completion_batcher.h"
#include "rt/mpmc_queue.h"
#include "rt/sharded_opqueue.h"
#include "rt/throttle.h"

namespace {

using namespace afc::rt;

// --- op queue: community (head-of-line blocking) vs pending queue ---------
// One hot key (a busy PG) plus uniform traffic; workers "hold the PG lock"
// for a short service time. Pending mode keeps workers busy on other keys.
void bench_opqueue(benchmark::State& state, bool pending) {
  const unsigned kWorkers = 4;
  constexpr int kHotEvery = 4;
  for (auto _ : state) {
    state.PauseTiming();
    ShardedOpQueue<int> q(2, pending);
    std::atomic<std::uint64_t> processed{0};
    const std::uint64_t total = 4096;
    state.ResumeTiming();

    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kWorkers; w++) {
      workers.emplace_back([&q, &processed, w] {
        while (auto c = q.pop(w % 2)) {
          // Simulated service: the hot key holds its "PG" longer.
          volatile std::uint64_t spin = c->key == 1 ? 2000 : 200;
          while (spin > 0) spin = spin - 1;
          processed.fetch_add(1, std::memory_order_relaxed);
          q.complete(c->key);
        }
      });
    }
    for (std::uint64_t i = 0; i < total; i++) {
      q.submit(i % kHotEvery == 0 ? 1 : 100 + (i % 61), int(i));
    }
    while (processed.load(std::memory_order_relaxed) < total) {
      std::this_thread::yield();
    }
    q.close();
    for (auto& w : workers) w.join();
    state.SetItemsProcessed(state.items_processed() + int64_t(total));
  }
}
void BM_OpQueue_CommunityHol(benchmark::State& s) { bench_opqueue(s, false); }
void BM_OpQueue_PendingQueue(benchmark::State& s) { bench_opqueue(s, true); }
BENCHMARK(BM_OpQueue_CommunityHol)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpQueue_PendingQueue)->Unit(benchmark::kMillisecond);

// --- logger: blocking vs non-blocking vs log-cache -------------------------
void bench_logger(benchmark::State& state, bool nonblocking, bool cache) {
  AsyncLogger::Config cfg;
  cfg.nonblocking = nonblocking;
  cfg.use_log_cache = cache;
  cfg.writer_threads = nonblocking ? 2 : 1;
  cfg.queue_capacity = nonblocking ? (1 << 15) : 64;
  AsyncLogger log(cfg);
  std::uint64_t i = 0;
  for (auto _ : state) {
    log.log("osd op_wq dispatch pg", i++);
  }
  state.SetItemsProcessed(int64_t(i));
  state.counters["dropped"] = double(log.dropped());
}
void BM_Logger_Blocking(benchmark::State& s) { bench_logger(s, false, false); }
void BM_Logger_NonBlocking(benchmark::State& s) { bench_logger(s, true, false); }
void BM_Logger_NonBlockingCached(benchmark::State& s) { bench_logger(s, true, true); }
BENCHMARK(BM_Logger_Blocking);
BENCHMARK(BM_Logger_NonBlocking);
BENCHMARK(BM_Logger_NonBlockingCached);

// --- throttle ---------------------------------------------------------------
void BM_Throttle_AcquireRelease(benchmark::State& state) {
  Throttle t(64);
  for (auto _ : state) {
    t.acquire(1);
    t.release(1);
  }
}
BENCHMARK(BM_Throttle_AcquireRelease);

// --- completion batcher ------------------------------------------------------
void BM_CompletionBatcher_Submit(benchmark::State& state) {
  std::atomic<std::uint64_t> handled{0};
  CompletionBatcher b([&](std::uint64_t, const std::vector<std::uint64_t>& v) {
    handled.fetch_add(v.size(), std::memory_order_relaxed);
  });
  std::uint64_t i = 0;
  for (auto _ : state) {
    while (!b.submit(i % 128, i)) std::this_thread::yield();
    i++;
  }
  state.SetItemsProcessed(int64_t(i));
  b.shutdown();
  state.counters["max_batch"] = double(b.max_batch());
}
BENCHMARK(BM_CompletionBatcher_Submit);

// --- raw queues ---------------------------------------------------------------
void BM_MpmcQueue_PingPong(benchmark::State& state) {
  MpmcQueue<std::uint64_t> q(1024);
  std::thread consumer([&q] {
    while (q.pop().has_value()) {
    }
  });
  std::uint64_t i = 0;
  for (auto _ : state) q.push(i++);
  q.close();
  consumer.join();
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_MpmcQueue_PingPong);

void BM_SpscRing_PingPong(benchmark::State& state) {
  SpscRing<std::uint64_t> r(1024);
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      while (r.try_pop().has_value()) {
      }
    }
    while (r.try_pop().has_value()) {
    }
  });
  std::uint64_t i = 0;
  for (auto _ : state) {
    while (!r.try_push(i)) {
    }
    i++;
  }
  stop = true;
  consumer.join();
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_SpscRing_PingPong);

// --- allocator: thread-caching arena vs global new/delete -------------------
// The paper's §3.2: small-random workloads hammer the allocator; a
// thread-caching design (jemalloc-style) beats the global heap under
// concurrent small allocations.
void BM_Alloc_GlobalNew(benchmark::State& state) {
  std::vector<void*> live(64, nullptr);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t sz = 16 + (i * 37) % 480;
    void*& slot = live[i % live.size()];
    if (slot != nullptr) ::operator delete(slot);
    slot = ::operator new(sz);
    benchmark::DoNotOptimize(slot);
    i++;
  }
  for (void* p : live) {
    if (p != nullptr) ::operator delete(p);
  }
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_Alloc_GlobalNew)->Threads(1)->Threads(4);

void BM_Alloc_Arena(benchmark::State& state) {
  static Arena arena;  // shared across benchmark threads
  std::vector<std::pair<void*, std::size_t>> live(64, {nullptr, 0});
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t sz = 16 + (i * 37) % 480;
    auto& slot = live[i % live.size()];
    if (slot.first != nullptr) arena.deallocate(slot.first, slot.second);
    slot = {arena.allocate(sz), sz};
    benchmark::DoNotOptimize(slot.first);
    i++;
  }
  for (auto [p, sz] : live) {
    if (p != nullptr) arena.deallocate(p, sz);
  }
  state.SetItemsProcessed(int64_t(i));
}
BENCHMARK(BM_Alloc_Arena)->Threads(1)->Threads(4);

}  // namespace

BENCHMARK_MAIN();
