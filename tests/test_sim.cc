// Unit tests for the discrete-event simulation kernel (sim/): event
// ordering, coroutine tasks, synchronization primitives, channels, CPU pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/channel.h"
#include "sim/cpu.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace afc::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_after(30, [&] { order.push_back(3); });
  sim.schedule_after(10, [&] { order.push_back(1); });
  sim.schedule_after(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, EqualTimestampsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.schedule_after(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Simulation, NestedSchedulingAdvancesClock) {
  Simulation sim;
  Time inner_time = 0;
  sim.schedule_after(10, [&] {
    sim.schedule_after(15, [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, 25u);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(10, [&] { fired++; });
  sim.schedule_after(100, [&] { fired++; });
  EXPECT_TRUE(sim.run_until(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, PastScheduleClampsToNow) {
  Simulation sim;
  Time when = ~Time(0);
  sim.schedule_after(100, [&] {
    sim.schedule_at(5, [&] { when = sim.now(); });  // in the "past"
  });
  sim.run();
  EXPECT_EQ(when, 100u);
}

TEST(CoTask, ReturnsValueToParent) {
  Simulation sim;
  int result = 0;
  auto child = [&]() -> CoTask<int> { co_return 42; };
  auto parent = [&]() -> CoTask<void> { result = co_await child(); };
  spawn(parent());
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(CoTask, DelayAdvancesVirtualTime) {
  Simulation sim;
  Time t1 = 0, t2 = 0;
  auto task = [&]() -> CoTask<void> {
    co_await delay(sim, 100);
    t1 = sim.now();
    co_await delay(sim, 250);
    t2 = sim.now();
  };
  spawn(task());
  sim.run();
  EXPECT_EQ(t1, 100u);
  EXPECT_EQ(t2, 350u);
}

TEST(CoTask, DeepChainCompletes) {
  Simulation sim;
  // Recursion through CoTask frames: verifies the symmetric-transfer chain
  // and frame cleanup at a depth that would be uncomfortable on the stack
  // if transfers recursed.
  struct Rec {
    static CoTask<int> down(Simulation& s, int n) {
      if (n == 0) co_return 0;
      co_await delay(s, 1);
      const int sub = co_await down(s, n - 1);
      co_return sub + 1;
    }
  };
  int result = -1;
  auto root = [&]() -> CoTask<void> { result = co_await Rec::down(sim, 500); };
  spawn(root());
  sim.run();
  EXPECT_EQ(result, 500);
  EXPECT_EQ(sim.now(), 500u);
}

/// The machine-stack address of a frame called from the current context.
[[gnu::noinline]] std::uintptr_t stack_marker() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

TEST(CoTask, SynchronousCompletionsRunOnTheCallersStack) {
  Simulation sim;
  // Children that finish without suspending must return to the parent like
  // ordinary calls. If each completion nested a resume of the parent, the
  // stack would grow per iteration; without tail calls (sanitizer builds)
  // 100k iterations overflow the default 8 MiB stack.
  constexpr int kIters = 100'000;
  auto child = []() -> CoTask<std::uintptr_t> { co_return stack_marker(); };
  std::uintptr_t first = 0;
  std::uintptr_t last = 0;
  auto parent = [&]() -> CoTask<void> {
    for (int i = 0; i < kIters; i++) {
      const std::uintptr_t at = co_await child();
      if (i == 0) first = at;
      last = at;
    }
  };
  spawn(parent());
  sim.run();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(first, last);
}

TEST(Mutex, ProvidesMutualExclusion) {
  Simulation sim;
  Mutex mu(sim);
  int inside = 0;
  int max_inside = 0;
  auto worker = [&]() -> CoTask<void> {
    co_await mu.lock();
    inside++;
    max_inside = std::max(max_inside, inside);
    co_await delay(sim, 10);
    inside--;
    mu.unlock();
  };
  for (int i = 0; i < 5; i++) spawn(worker());
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(mu.acquisitions(), 5u);
  EXPECT_EQ(mu.contended_acquisitions(), 4u);
  EXPECT_FALSE(mu.is_locked());
}

TEST(Mutex, FifoHandoffOrder) {
  Simulation sim;
  Mutex mu(sim);
  std::vector<int> order;
  auto worker = [&](int id) -> CoTask<void> {
    co_await mu.lock();
    order.push_back(id);
    co_await delay(sim, 5);
    mu.unlock();
  };
  // Stagger arrivals so the queue order is deterministic.
  for (int i = 0; i < 4; i++) {
    sim.schedule_after(Time(i), [&, i] { spawn(worker(i)); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mutex, TracksWaitTime) {
  Simulation sim;
  Mutex mu(sim);
  auto holder = [&]() -> CoTask<void> {
    co_await mu.lock();
    co_await delay(sim, 100);
    mu.unlock();
  };
  auto waiter = [&]() -> CoTask<void> {
    co_await mu.lock();
    mu.unlock();
  };
  spawn(holder());
  spawn(waiter());
  sim.run();
  EXPECT_EQ(mu.total_wait_ns(), 100u);
}

TEST(Mutex, TryLockDoesNotBlock) {
  Simulation sim;
  Mutex mu(sim);
  EXPECT_TRUE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(ScopedLock, ReleasesOnScopeExit) {
  Simulation sim;
  Mutex mu(sim);
  bool second_ran = false;
  auto first = [&]() -> CoTask<void> {
    auto guard = co_await ScopedLock::acquire(mu);
    co_await delay(sim, 10);
  };
  auto second = [&]() -> CoTask<void> {
    co_await mu.lock();
    second_ran = true;
    mu.unlock();
  };
  spawn(first());
  spawn(second());
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(mu.is_locked());
}

TEST(Semaphore, WeightedFifo) {
  Simulation sim;
  Semaphore sem(sim, 10);
  std::vector<int> order;
  auto taker = [&](int id, std::uint64_t n, Time hold) -> CoTask<void> {
    co_await sem.acquire(n);
    order.push_back(id);
    co_await delay(sim, hold);
    sem.release(n);
  };
  // A big request queued first must not be starved by small ones behind it.
  spawn(taker(0, 8, 50));
  sim.schedule_after(1, [&] { spawn(taker(1, 8, 10)); });   // blocks (8 > 2 left)
  sim.schedule_after(2, [&] { spawn(taker(2, 1, 10)); });   // would fit, but FIFO
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Semaphore, CapacityResize) {
  Simulation sim;
  Semaphore sem(sim, 2);
  EXPECT_TRUE(sem.try_acquire(2));
  EXPECT_FALSE(sem.try_acquire(1));
  sem.set_capacity(5);
  EXPECT_TRUE(sem.try_acquire(3));
  sem.release(5);
  EXPECT_EQ(sem.available(), 5u);
}

TEST(Channel, FifoDelivery) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  auto consumer = [&]() -> CoTask<void> {
    for (;;) {
      auto v = co_await ch.pop();
      if (!v) break;
      got.push_back(*v);
    }
  };
  spawn(consumer());
  auto producer = [&]() -> CoTask<void> {
    for (int i = 0; i < 100; i++) co_await ch.push(i);
    ch.close();
  };
  spawn(producer());
  sim.run();
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; i++) EXPECT_EQ(got[std::size_t(i)], i);
}

TEST(Channel, BoundedBlocksProducer) {
  Simulation sim;
  Channel<int> ch(sim, 2);
  int produced = 0;
  auto producer = [&]() -> CoTask<void> {
    for (int i = 0; i < 10; i++) {
      co_await ch.push(i);
      produced++;
    }
  };
  spawn(producer());
  sim.run_until(0);
  EXPECT_EQ(produced, 2);  // capacity reached, producer suspended
  auto consumer = [&]() -> CoTask<void> {
    for (int i = 0; i < 10; i++) {
      auto v = co_await ch.pop();
      EXPECT_TRUE(v.has_value());  // ASSERT_* returns, which coroutines forbid
      if (!v) co_return;
      EXPECT_EQ(*v, i);
    }
  };
  spawn(consumer());
  sim.run();
  EXPECT_EQ(produced, 10);
  EXPECT_GT(ch.blocked_pushes(), 0u);
}

TEST(Channel, CloseDrainsThenNullopt) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.try_push(1);
  ch.try_push(2);
  ch.close();
  std::vector<int> got;
  bool saw_end = false;
  auto consumer = [&]() -> CoTask<void> {
    for (;;) {
      auto v = co_await ch.pop();
      if (!v) {
        saw_end = true;
        break;
      }
      got.push_back(*v);
    }
  };
  spawn(consumer());
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_end);
}

TEST(CondVar, NotifyOneWakesOneWaiter) {
  Simulation sim;
  CondVar cv(sim);
  int woken = 0;
  bool ready = false;
  auto waiter = [&]() -> CoTask<void> {
    while (!ready) co_await cv.wait();
    woken++;
  };
  spawn(waiter());
  spawn(waiter());
  sim.schedule_after(10, [&] {
    ready = true;
    cv.notify_one();
  });
  sim.run();
  // notify_one wakes one coroutine; since `ready` is now true it completes,
  // but the second stays suspended forever (no more notifies).
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(cv.waiters(), 1u);
}

TEST(WaitGroup, JoinsAllTasks) {
  Simulation sim;
  WaitGroup wg(sim);
  int done = 0;
  Time joined_at = 0;
  for (int i = 1; i <= 3; i++) {
    wg.add(1);
    const Time d = Time(i) * 10;
    sim.schedule_after(0, [&, d] {
      spawn([](Simulation& s, WaitGroup& w, int& counter, Time dd) -> CoTask<void> {
        co_await delay(s, dd);
        counter++;
        w.done();
      }(sim, wg, done, d));
    });
  }
  auto joiner = [&]() -> CoTask<void> {
    co_await wg.wait();
    joined_at = sim.now();
  };
  spawn(joiner());
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(joined_at, 30u);
}

TEST(OneShot, WaitersReleaseOnSet) {
  Simulation sim;
  OneShot ev(sim);
  int released = 0;
  auto waiter = [&]() -> CoTask<void> {
    co_await ev.wait();
    released++;
  };
  spawn(waiter());
  spawn(waiter());
  sim.schedule_after(5, [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(released, 2);
  // Waiting after set() returns immediately.
  spawn(waiter());
  sim.run();
  EXPECT_EQ(released, 3);
}

TEST(CpuPool, SerializesBeyondCoreCount) {
  Simulation sim;
  CpuPool cpu(sim, 2);
  Time finished = 0;
  auto job = [&]() -> CoTask<void> {
    co_await cpu.consume(100);
    finished = sim.now();
  };
  for (int i = 0; i < 4; i++) spawn(job());
  sim.run();
  // 4 jobs x 100ns on 2 cores => makespan 200ns.
  EXPECT_EQ(finished, 200u);
  EXPECT_EQ(cpu.busy_ns(), 400u);
  EXPECT_DOUBLE_EQ(cpu.utilization(), 1.0);
}

TEST(CpuPool, ZeroCostIsFree) {
  Simulation sim;
  CpuPool cpu(sim, 1);
  auto job = [&]() -> CoTask<void> { co_await cpu.consume(0); };
  spawn(job());
  sim.run();
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Semaphore, CapacityShrinkTakesEffectAsUnitsDrain) {
  Simulation sim;
  Semaphore sem(sim, 4);
  EXPECT_TRUE(sem.try_acquire(4));
  sem.set_capacity(2);  // shrink while fully in use
  sem.release(4);
  EXPECT_EQ(sem.available(), 2u);
  EXPECT_TRUE(sem.try_acquire(2));
  EXPECT_FALSE(sem.try_acquire(1));
  sem.release(2);
}

TEST(Semaphore, TracksWaitTimeAndBlockedCount) {
  Simulation sim;
  Semaphore sem(sim, 1);
  auto holder = [&]() -> CoTask<void> {
    co_await sem.acquire(1);
    co_await delay(sim, 250);
    sem.release(1);
  };
  auto waiter = [&]() -> CoTask<void> {
    co_await sem.acquire(1);
    sem.release(1);
  };
  spawn(holder());
  spawn(waiter());
  sim.run();
  EXPECT_EQ(sem.blocked_acquires(), 1u);
  EXPECT_EQ(sem.total_wait_ns(), 250u);
}

TEST(Channel, DrainGrabsEverythingWithoutBlocking) {
  Simulation sim;
  Channel<int> ch(sim);
  for (int i = 0; i < 5; i++) ch.try_push(i);
  auto drained = ch.drain();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(drained.front(), 0);
  EXPECT_EQ(drained.back(), 4);
}

// The ring against a std::deque: random pushes and pops cross the ring's
// wrap point and its growth, and pop_all / drain hand back the queue in
// FIFO order.
TEST(Channel, RingMatchesDequeAcrossWrapGrowthAndDrains) {
  Simulation sim;
  Channel<std::string> ch(sim);
  EXPECT_EQ(ch.ring_slots(), 0u);  // a fresh channel holds no storage
  std::deque<std::string> ref;
  Rng rng(8);
  int next = 0;
  const auto expect_same = [&](const std::vector<std::string>& got) {
    ASSERT_EQ(got.size(), ref.size());
    for (const auto& v : got) {
      EXPECT_EQ(v, ref.front());
      ref.pop_front();
    }
  };
  for (int round = 0; round < 300; round++) {
    const auto pushes = rng.uniform_int(0, round % 50 == 49 ? 40 : 6);
    for (std::uint64_t i = 0; i < pushes; i++) {
      const std::string n = std::to_string(next++);
      const std::string v = "frame-" + n;
      ASSERT_TRUE(ch.try_push(v));
      ref.push_back(v);
    }
    const auto pops = rng.uniform_int(0, 6);
    for (std::uint64_t i = 0; i < pops && !ref.empty(); i++) {
      auto task = [&]() -> CoTask<void> {
        auto v = co_await ch.pop();
        EXPECT_EQ(v, std::optional<std::string>(ref.front()));
        ref.pop_front();
      };
      spawn(task());
      sim.run();
    }
    ASSERT_EQ(ch.size(), ref.size());
    if (round % 37 == 36) {
      auto task = [&]() -> CoTask<void> { expect_same(co_await ch.pop_all()); };
      if (!ref.empty()) {
        spawn(task());
        sim.run();
      }
    } else if (round % 23 == 22) {
      expect_same(ch.drain());
    }
    ASSERT_EQ(ch.size(), ref.size());
  }
  EXPECT_GE(ch.ring_slots(), ch.max_depth());
  EXPECT_EQ(ch.ring_slots() & (ch.ring_slots() - 1), 0u);  // a power of two
  EXPECT_EQ(ch.total_pushes(), std::uint64_t(next));
}

// A consumer woken by a push loses the item to an inline pop before its
// wake event runs; it must park again at the tail, behind the consumers
// that were already waiting. Returns the resume log: "<who>@<time>=<items>".
std::vector<std::string> lost_wakeup_log() {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::string> log;
  const auto note = [&](const std::string& who, const std::string& what) {
    log.push_back(who + "@" + std::to_string(sim.now()) + "=" + what);
  };
  const auto consumer = [&](std::string who) -> CoTask<void> {
    for (;;) {
      auto v = co_await ch.pop();
      note(who, v ? std::to_string(*v) : "end");
      if (!v) break;
    }
  };
  const auto batch_consumer = [&](std::string who) -> CoTask<void> {
    for (;;) {
      auto batch = co_await ch.pop_all();
      std::string items;
      for (int v : batch) items += std::to_string(v) + ",";
      note(who, batch.empty() ? "end" : items);
      if (batch.empty()) break;
    }
  };
  const auto thief = [&]() -> CoTask<void> {
    auto v = co_await ch.pop();
    note("thief", v ? std::to_string(*v) : "end");
  };
  spawn(consumer("a"));
  spawn(consumer("b"));
  spawn(consumer("c"));
  spawn(batch_consumer("d"));
  sim.schedule_after(10, [&] {
    ch.try_push(1);  // wakes a
    spawn(thief());  // takes 1 before a's wake event runs
  });
  sim.schedule_after(20, [&] {
    ch.try_push(2);
    ch.try_push(3);
  });
  sim.schedule_after(30, [&] {
    ch.try_push(4);
    spawn(thief());
    ch.try_push(5);
    ch.try_push(6);
  });
  sim.schedule_after(40, [&] {
    ch.try_push(7);
    spawn(thief());
  });
  sim.schedule_after(50, [&] { ch.close(); });
  sim.run();
  return log;
}

// The log was captured from the channel whose pop() was a coroutine looping
// on a CondVar; the frame-free awaiters must resume in the same order.
TEST(Channel, LostWakeupReparksAtTailLikeTheWaitLoop) {
  const std::vector<std::string> golden = {
      "thief@10=1", "b@20=2",  "b@20=3",  "thief@30=4", "d@30=5,6,",
      "thief@40=7", "d@50=end", "a@50=end", "b@50=end",  "c@50=end",
  };
  EXPECT_EQ(lost_wakeup_log(), golden);
}

// close() wakes every parked pop() and pop_all() consumer with an empty
// result, in the order they parked.
TEST(Channel, CloseWakesEveryParkedConsumerInFifoOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<std::string> woke;
  const auto pop = [&](std::string who) -> CoTask<void> {
    auto v = co_await ch.pop();
    EXPECT_FALSE(v.has_value()) << who;
    EXPECT_EQ(sim.now(), 5u) << who;
    woke.push_back(who);
  };
  const auto pop_all = [&](std::string who) -> CoTask<void> {
    auto batch = co_await ch.pop_all();
    EXPECT_TRUE(batch.empty()) << who;
    EXPECT_EQ(sim.now(), 5u) << who;
    woke.push_back(who);
  };
  spawn(pop("p1"));
  spawn(pop_all("q1"));
  spawn(pop("p2"));
  spawn(pop("p3"));
  spawn(pop_all("q2"));
  sim.schedule_after(5, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<std::string>{"p1", "q1", "p2", "p3", "q2"}));
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, StatsTrackDepthAndPushes) {
  Simulation sim;
  Channel<int> ch(sim);
  for (int i = 0; i < 7; i++) ch.try_push(i);
  EXPECT_EQ(ch.total_pushes(), 7u);
  EXPECT_EQ(ch.max_depth(), 7u);
}

TEST(EventFn, StoresSmallCapturesInline) {
  // Compile-time contract: pointer+integer captures fit; the static_asserts
  // in EventFn reject anything bigger. Runtime check: the callback runs.
  Simulation sim;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  bool ran = false;
  bool* ranp = &ran;
  sim.schedule_after(1, [a, b, c, d, ranp] {
    if (a + b + c + d == 10) *ranp = true;
  });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(FramePool, RecyclesCoroutineFrames) {
  // Churn many short-lived coroutines; the pool makes this cheap and, more
  // importantly, correct (no double-free / use-after-free under recycling).
  Simulation sim;
  std::uint64_t sum = 0;
  auto leaf = [&sim](std::uint64_t i) -> CoTask<std::uint64_t> {
    co_await delay(sim, 1);
    co_return i;
  };
  auto root = [&]() -> CoTask<void> {
    for (std::uint64_t i = 0; i < 20000; i++) sum += co_await leaf(i);
  };
  spawn(root());
  sim.run();
  EXPECT_EQ(sum, 20000ull * 19999 / 2);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(1, [&] { fired++; });
  sim.schedule_after(2, [&] { fired++; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.executed_events(), 2u);
}

// ---------------------------------------------------------------------------
// Daemon events: periodic background timers that do not keep run() alive

/// A self-re-arming periodic timer, as a daemon or as an ordinary event.
/// Each firing appends (id, now) to `log`. It stops after 1000 log entries,
/// so a run() that waits on daemons fails its test instead of hanging it.
struct Ticker {
  Simulation* sim;
  Time period;
  bool daemon;
  int id;
  std::vector<std::pair<int, Time>>* log;
  TimerToken token;

  void arm() {
    token = daemon ? sim->schedule_daemon_after(period, [this] { fire(); })
                   : sim->schedule_after(period, [this] { fire(); });
  }
  void fire() {
    log->emplace_back(id, sim->now());
    if (log->size() < 1000) arm();
  }
};

TEST(DaemonEvents, RunReturnsWhenOnlyDaemonsRemain) {
  Simulation sim;
  std::vector<std::pair<int, Time>> log;
  Ticker hb{&sim, 7, true, 0, &log, {}};
  hb.arm();
  sim.schedule_after(10, [&] { log.emplace_back(1, sim.now()); });
  sim.schedule_after(25, [&] { log.emplace_back(2, sim.now()); });
  sim.run();
  EXPECT_EQ(sim.now(), 25u);  // the last ordinary event, not a later tick
  EXPECT_EQ(log, (std::vector<std::pair<int, Time>>{{0, 7}, {1, 10}, {0, 14}, {0, 21}, {2, 25}}));
  EXPECT_EQ(sim.pending_events(), 1u);  // the tick at 28 stays queued
  EXPECT_EQ(sim.pending_daemon_events(), 1u);
  sim.run();  // nothing ordinary left: returns at once
  EXPECT_EQ(sim.now(), 25u);
  EXPECT_EQ(log.size(), 5u);
}

TEST(DaemonEvents, OrdinaryEventFromDaemonKeepsRunGoing) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_daemon_after(10, [&] {
    order.push_back(1);
    sim.schedule_after(40, [&] {
      order.push_back(3);
      sim.schedule_after(5, [&] { order.push_back(4); });
    });
  });
  sim.schedule_after(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 55u);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending_daemon_events(), 0u);
}

TEST(DaemonEvents, CancelKeepsTheDaemonCount) {
  Simulation sim;
  int fired = 0;
  const TimerToken d1 = sim.schedule_daemon_after(10, [&] { fired++; });
  const TimerToken d2 = sim.schedule_daemon_after(20, [&] { fired++; });
  const TimerToken o = sim.schedule_after(30, [&] { fired++; });
  EXPECT_EQ(sim.pending_daemon_events(), 2u);
  EXPECT_TRUE(sim.cancel(d1));
  EXPECT_FALSE(sim.cancel(d1));  // a second cancel must not count twice
  EXPECT_EQ(sim.pending_daemon_events(), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(o));  // cancelling an ordinary event leaves it alone
  EXPECT_EQ(sim.pending_daemon_events(), 1u);
  sim.run();  // only d2 is left: a daemon, so nothing runs
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.step());  // step() runs daemons like any event
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(d2));  // already executed
  EXPECT_EQ(sim.pending_daemon_events(), 0u);
  EXPECT_TRUE(sim.empty());
}

TEST(DaemonEvents, RunUntilExecutesDaemonsToItsHorizon) {
  Simulation sim;
  std::vector<std::pair<int, Time>> log;
  Ticker hb{&sim, 10, true, 0, &log, {}};
  hb.arm();
  EXPECT_TRUE(sim.run_until(55));  // the tick at 60 is still queued
  EXPECT_EQ(log, (std::vector<std::pair<int, Time>>{{0, 10}, {0, 20}, {0, 30}, {0, 40}, {0, 50}}));
  EXPECT_EQ(sim.now(), 55u);
  EXPECT_TRUE(sim.cancel(hb.token));
  EXPECT_EQ(sim.pending_daemon_events(), 0u);
  EXPECT_FALSE(sim.run_until(100));
}

/// One mixed schedule: two periodic tickers (the first a daemon when
/// `daemon`), and ordinary one-shots, some at the tickers' own timestamps so
/// FIFO tie-breaks are exercised. Returns the execution log to `horizon`.
std::vector<std::pair<int, Time>> mixed_schedule(bool daemon, Time horizon) {
  Simulation sim;
  std::vector<std::pair<int, Time>> log;
  Ticker a{&sim, 6, daemon, 0, &log, {}};
  Ticker b{&sim, 9, false, 1, &log, {}};
  a.arm();
  b.arm();
  std::uint64_t x = 12345;
  for (int i = 0; i < 200; i++) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const Time t = Time((x >> 33) % 600);
    sim.schedule_at(t - t % 3, [&log, &sim, i] { log.emplace_back(100 + i, sim.now()); });
  }
  sim.run_until(horizon);
  return log;
}

TEST(DaemonEvents, FlagDoesNotChangeEventOrder) {
  const auto plain = mixed_schedule(false, 1000);
  const auto daemon = mixed_schedule(true, 1000);
  ASSERT_GT(plain.size(), 200u);
  EXPECT_EQ(plain, daemon);
}

TEST(CpuPool, QueueWaitAccounted) {
  Simulation sim;
  CpuPool cpu(sim, 1);
  auto job = [&]() -> CoTask<void> { co_await cpu.consume(100); };
  spawn(job());
  spawn(job());
  sim.run();
  EXPECT_EQ(cpu.total_queue_wait_ns(), 100u);
  EXPECT_EQ(cpu.queued(), 0u);
}

// --- timing-wheel vs reference-heap determinism ------------------------------
//
// The wheel replaced a std::priority_queue ordered by (time, seq). The whole
// point of keeping FIFO tie-break was bit-reproducible runs, so pit the wheel
// against a reference heap on an adversarial schedule: equal timestamps,
// deltas straddling every level boundary, >2^48 overflow horizons, clamped
// past schedules, nested scheduling from inside events, and cancellations
// (including stale tokens). Both must produce the identical (id, time) trace.

class RefHeap {
 public:
  struct Token {
    std::size_t id = SIZE_MAX;
  };

  Time now() const { return now_; }

  Token schedule_at(Time t, std::function<void()> fn) {
    if (t < now_) t = now_;
    state_.push_back(kPending);
    events_.push(Ev{t, seq_++, state_.size() - 1, std::move(fn)});
    return Token{state_.size() - 1};
  }
  Token schedule_after(Time d, std::function<void()> fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  bool cancel(Token tok) {
    if (tok.id >= state_.size() || state_[tok.id] != kPending) return false;
    state_[tok.id] = kCancelled;
    return true;
  }

  void run() {
    while (!events_.empty()) {
      Ev ev = std::move(const_cast<Ev&>(events_.top()));
      events_.pop();
      now_ = ev.t;
      if (state_[ev.id] == kCancelled) continue;  // tombstone
      state_[ev.id] = kDone;
      ev.fn();
    }
  }

 private:
  enum State : char { kPending, kCancelled, kDone };
  struct Ev {
    Time t;
    std::uint64_t seq;
    std::size_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Ev, std::vector<Ev>, Later> events_;
  std::vector<char> state_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
};

// Thin wheel adapter giving Simulation the same Token surface as RefHeap.
class WheelRef {
 public:
  using Token = TimerToken;
  Time now() const { return sim_.now(); }
  Token schedule_at(Time t, EventFn fn) { return sim_.schedule_at(t, fn); }
  Token schedule_after(Time d, EventFn fn) { return sim_.schedule_after(d, fn); }
  bool cancel(Token tok) { return sim_.cancel(tok); }
  void run() { sim_.run(); }

 private:
  Simulation sim_;
};

template <class S>
struct Adversary {
  S sched;
  std::vector<std::pair<std::uint64_t, Time>> trace;
  std::vector<typename S::Token> tokens;
  std::uint64_t spawned = 0;
  std::uint32_t rng = 0x2545f491u;
  static constexpr std::uint64_t kMaxSpawn = 5000;

  std::uint32_t rand() { return rng = rng * 1664525u + 1013904223u; }

  void seed_and_run() {
    for (std::uint64_t i = 0; i < 8; i++) spawn_child(i * 1000);
    sched.run();
  }

  void spawn_child(std::uint64_t id) {
    // Deltas straddle the 64-slot level boundaries (63/64/65, 4095/4096),
    // include plenty of ties (0 twice), and overflow past the 2^48 ns wheel
    // range. One in eight is a clamped schedule into the past.
    static constexpr Time kDeltas[] = {0,        0,          1,           63,
                                       64,       65,         4095,        4096,
                                       1u << 20, 1ull << 30, (1ull << 48) + 12345};
    const std::uint32_t r = rand();
    spawned++;
    if ((r & 7u) == 0) {
      const Time past = sched.now() > 500 ? sched.now() - 500 : 0;
      tokens.push_back(sched.schedule_at(past, [this, id] { fire(id); }));
    } else {
      tokens.push_back(
          sched.schedule_after(kDeltas[r % 11u], [this, id] { fire(id); }));
    }
  }

  void fire(std::uint64_t id) {
    trace.emplace_back(id, sched.now());
    // Every third firing, cancel a deterministically-picked token; it is
    // often stale (already fired) — both schedulers must agree it's a no-op.
    if (trace.size() % 3 == 0 && !tokens.empty()) {
      sched.cancel(tokens[(id * 2654435761u) % tokens.size()]);
    }
    if (spawned >= kMaxSpawn) return;
    spawn_child(id * 2 + 1);
    spawn_child(id * 2 + 2);
  }
};

TEST(Simulation, WheelMatchesReferenceHeapOnAdversarialSchedule) {
  Adversary<WheelRef> wheel;
  Adversary<RefHeap> heap;
  wheel.seed_and_run();
  heap.seed_and_run();
  ASSERT_EQ(wheel.trace.size(), heap.trace.size());
  for (std::size_t i = 0; i < wheel.trace.size(); i++) {
    ASSERT_EQ(wheel.trace[i].first, heap.trace[i].first) << "at trace index " << i;
    ASSERT_EQ(wheel.trace[i].second, heap.trace[i].second) << "at trace index " << i;
  }
  EXPECT_GT(wheel.trace.size(), 1000u);  // the schedule actually ran deep
}

// --- cancellable timers ------------------------------------------------------

TEST(Simulation, CancelDropsEventAndInvalidatesToken) {
  Simulation sim;
  int fired = 0;
  TimerToken a = sim.schedule_after(10, [&] { fired += 1; });
  sim.schedule_after(20, [&] { fired += 10; });
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // double-cancel is a no-op
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.executed_events(), 1u);  // the cancelled event never executed
  EXPECT_FALSE(sim.cancel(a));           // stale after run, still a no-op
}

TEST(Simulation, CancelAfterExecutionReturnsFalse) {
  Simulation sim;
  TimerToken a = sim.schedule_after(5, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(a));
}

TEST(Simulation, FarFutureOverflowKeepsOrder) {
  // Beyond 2^48 ns the wheel spills to an overflow map; events must still
  // come back in (time, seq) order, interleaved with near-term events.
  Simulation sim;
  std::vector<int> order;
  const Time far = (Time(1) << 48) + 777;
  sim.schedule_at(far, [&] { order.push_back(2); });
  sim.schedule_at(far, [&] { order.push_back(3); });  // FIFO tie at far
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(far + 1, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), far + 1);
}

TEST(Simulation, FifoPreservedAcrossDifferentCascadePaths) {
  // Three events land on the same timestamp via different routes: scheduled
  // from t=0 (deep level, cascades down), from t=5000 (mid level), and from
  // t=9999 (level 0 directly). FIFO must still follow schedule order.
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(10000, [&] { order.push_back(1); });
  sim.schedule_at(5000, [&] { sim.schedule_at(10000, [&] { order.push_back(2); }); });
  sim.schedule_at(9999, [&] { sim.schedule_at(10000, [&] { order.push_back(3); }); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, RunUntilAdvancesNowWhenDrained) {
  Simulation sim;
  sim.schedule_at(5, [] {});
  EXPECT_FALSE(sim.run_until(100));  // drained before the horizon
  EXPECT_EQ(sim.now(), 100u);       // contract: now() == t either way
  sim.schedule_at(200, [] {});
  EXPECT_TRUE(sim.run_until(150));  // event remains beyond the horizon
  EXPECT_EQ(sim.now(), 150u);
  EXPECT_FALSE(sim.run_until(200));  // executes at exactly t, drains the queue
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(Timer, SleepExpiresTrueCancelFalse) {
  Simulation sim;
  Timer t(sim);
  bool full_sleep = false;
  bool cut_short = true;
  Time woke_at = 0;
  auto sleeper = [&]() -> CoTask<void> {
    full_sleep = co_await t.sleep(100);
    cut_short = co_await t.sleep(100);
    woke_at = sim.now();
  };
  spawn(sleeper());
  // Cancel the second sleep mid-flight at t=110.
  sim.schedule_at(110, [&] { EXPECT_TRUE(t.cancel()); });
  sim.run();
  EXPECT_TRUE(full_sleep);    // first sleep ran its full 100 ns
  EXPECT_FALSE(cut_short);    // second was cancelled
  EXPECT_EQ(woke_at, 110u);   // woke at cancel time, not the 200 ns deadline
  EXPECT_FALSE(t.cancel());   // nothing armed now
}

TEST(CondVar, WaitForTimesOutWithoutNotify) {
  Simulation sim;
  CondVar cv(sim);
  TimedOut result = TimedOut::kNo;
  auto waiter = [&]() -> CoTask<void> { result = co_await cv.wait_for(500); };
  spawn(waiter());
  sim.run();
  EXPECT_EQ(result, TimedOut::kYes);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(CondVar, NotifyCancelsDeadlineOffTheWheel) {
  Simulation sim;
  CondVar cv(sim);
  TimedOut result = TimedOut::kYes;
  auto waiter = [&]() -> CoTask<void> { result = co_await cv.wait_for(500); };
  spawn(waiter());
  sim.schedule_at(10, [&] { cv.notify_one(); });
  sim.run();
  EXPECT_EQ(result, TimedOut::kNo);
  // The 500 ns deadline was cancelled, not left to fire as a tombstone:
  // after draining, the clock never reached it.
  EXPECT_LT(sim.now(), 500u);
}

TEST(OneShot, WaitForHonorsTimeoutAndSet) {
  Simulation sim;
  OneShot early(sim), never(sim);
  TimedOut got_early = TimedOut::kYes, got_never = TimedOut::kNo;
  auto w1 = [&]() -> CoTask<void> { got_early = co_await early.wait_for(1000); };
  auto w2 = [&]() -> CoTask<void> { got_never = co_await never.wait_for(1000); };
  spawn(w1());
  spawn(w2());
  sim.schedule_at(50, [&] { early.set(); });
  sim.run();
  EXPECT_EQ(got_early, TimedOut::kNo);   // set() arrived at t=50
  EXPECT_EQ(got_never, TimedOut::kYes);  // never set; the deadline fired
}

TEST(CondVar, TimedOutMiddleWaiterKeepsFifoOrder) {
  Simulation sim;
  CondVar cv(sim);
  std::vector<std::pair<int, TimedOut>> woke;
  auto waiter = [&](int id, Time timeout) -> CoTask<void> {
    const TimedOut r = co_await cv.wait_for(timeout);
    woke.emplace_back(id, r);
  };
  spawn(waiter(0, 1000));
  spawn(waiter(1, 50));  // the middle waiter times out and leaves the queue
  spawn(waiter(2, 1000));
  EXPECT_EQ(cv.waiters(), 3u);
  sim.schedule_at(60, [&] { EXPECT_EQ(cv.waiters(), 2u); });
  sim.schedule_at(100, [&] { cv.notify_one(); });
  sim.schedule_at(200, [&] { cv.notify_one(); });
  sim.run();
  const std::vector<std::pair<int, TimedOut>> expect{
      {1, TimedOut::kYes}, {0, TimedOut::kNo}, {2, TimedOut::kNo}};
  EXPECT_EQ(woke, expect);
  EXPECT_EQ(cv.waiters(), 0u);
  EXPECT_EQ(sim.now(), 200u);  // both surviving deadlines were cancelled
}

TEST(WaitList, WaiterCountsTrackSuspendAndResume) {
  Simulation sim;
  Mutex mu(sim);
  Semaphore sem(sim, 1);
  CpuPool cpu(sim, 1);
  std::vector<std::string> done;
  const auto tag = [](char kind, int id) { return std::string(1, kind) + char('0' + id); };
  auto locker = [&](int id) -> CoTask<void> {
    co_await mu.lock();
    co_await delay(sim, 10);
    mu.unlock();
    done.push_back(tag('m', id));
  };
  auto taker = [&](int id) -> CoTask<void> {
    co_await sem.acquire();
    co_await delay(sim, 10);
    sem.release();
    done.push_back(tag('s', id));
  };
  auto job = [&](int id) -> CoTask<void> {
    co_await cpu.consume(10);
    done.push_back(tag('c', id));
  };
  for (int i = 0; i < 3; i++) {
    spawn(locker(i));
    spawn(taker(i));
    spawn(job(i));
  }
  // One holder each, two queued behind it.
  EXPECT_EQ(mu.waiters(), 2u);
  EXPECT_EQ(sem.waiters(), 2u);
  EXPECT_EQ(cpu.queued(), 2u);
  // At t=10 each first holder hands over: one waiter leaves each queue.
  sim.run_until(10);
  EXPECT_EQ(mu.waiters(), 1u);
  EXPECT_EQ(sem.waiters(), 1u);
  EXPECT_EQ(cpu.queued(), 1u);
  sim.run_until(20);
  EXPECT_EQ(mu.waiters(), 0u);
  EXPECT_EQ(sem.waiters(), 0u);
  EXPECT_EQ(cpu.queued(), 0u);
  sim.run();
  EXPECT_FALSE(mu.is_locked());
  EXPECT_EQ(sem.available(), 1u);
  EXPECT_EQ(mu.contended_acquisitions(), 2u);
  EXPECT_EQ(sem.blocked_acquires(), 2u);
  EXPECT_EQ(cpu.total_queue_wait_ns(), 10u + 20u);
  // Each resource served its waiters in arrival order.
  std::vector<std::string> m, s, c;
  for (const auto& d : done) (d[0] == 'm' ? m : d[0] == 's' ? s : c).push_back(d);
  EXPECT_EQ(m, (std::vector<std::string>{"m0", "m1", "m2"}));
  EXPECT_EQ(s, (std::vector<std::string>{"s0", "s1", "s2"}));
  EXPECT_EQ(c, (std::vector<std::string>{"c0", "c1", "c2"}));
}

}  // namespace
}  // namespace afc::sim
