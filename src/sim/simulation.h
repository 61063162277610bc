#pragma once

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <map>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace afc::sim {

/// Fixed-size, trivially-copyable callback for simulator events. Events run
/// millions of times per simulated second; std::function would heap-allocate
/// for most captures. All event lambdas in the simulator capture at most a
/// few pointers/integers, which this stores inline.
class EventFn {
 public:
  template <class F>
  EventFn(F f) {  // NOLINT(google-explicit-constructor): callsite ergonomics
    static_assert(sizeof(F) <= kInlineSize, "event capture too large — shrink it");
    static_assert(std::is_trivially_destructible_v<F> && std::is_trivially_copyable_v<F>,
                  "event captures must be trivial (pointers/handles/ints)");
    new (buf_) F(std::move(f));
    call_ = [](void* p) { (*static_cast<F*>(p))(); };
  }

  /// Empty slot placeholder for pooled event storage; never invoked.
  EventFn() : call_(nullptr) {}

  void operator()() { call_(buf_); }

 private:
  static constexpr std::size_t kInlineSize = 48;
  alignas(16) unsigned char buf_[kInlineSize];
  void (*call_)(void*);
};

/// Handle to a scheduled event, returned by schedule_at/schedule_after.
/// Pass it to Simulation::cancel() to drop the event before it runs. Tokens
/// are cheap values; a default-constructed token cancels nothing. The
/// generation field makes tokens single-use: once the event has executed,
/// been cancelled, or its slot recycled, cancel() returns false.
class TimerToken {
 public:
  TimerToken() = default;

 private:
  friend class Simulation;
  TimerToken(std::uint32_t idx, std::uint64_t seq) : idx_(idx), seq_(seq) {}
  std::uint32_t idx_ = ~std::uint32_t(0);
  std::uint64_t seq_ = 0;
};

/// Deterministic single-threaded discrete-event simulator.
///
/// All concurrency in the simulated storage cluster is expressed as C++20
/// coroutines (see task.h / sync.h) whose suspensions and resumptions funnel
/// through this event queue. Events with equal timestamps run in insertion
/// order (FIFO tie-break), which makes simulated mutexes and queues fair and
/// runs bit-reproducible for a given seed.
///
/// The queue is a hierarchical timing wheel (calendar queue): kLevels levels
/// of kSlots slots each, slot width growing by kSlots per level, one 64-bit
/// occupancy bitmap per level. schedule and pop are O(1) amortized (an event
/// is re-bucketed at most once per level as the cursor approaches it), and
/// event storage lives in a slab of recycled slots, so the hot path never
/// touches the allocator and never moves an EventFn more than once. Events
/// beyond the wheel range (~3 days of virtual time) overflow to an ordered
/// map. See docs/MODEL.md ("Simulator core") for the layout and invariants.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute virtual time `t` (clamped to now()).
  /// `site`, if non-null, must be a string literal (or otherwise immortal
  /// string) naming the call site for the profiler's per-site counts.
  TimerToken schedule_at(Time t, EventFn fn, const char* site = nullptr);

  /// Schedule `fn` to run `delay` ns from now.
  TimerToken schedule_after(Time delay, EventFn fn, const char* site = nullptr) {
    return schedule_at(now_ + delay, std::move(fn), site);
  }

  /// Schedule a *daemon* event `delay` ns from now: a periodic background
  /// timer (a heartbeat tick) that does not keep run() alive. It executes
  /// like any other event while ordinary work remains, and under run_until
  /// and step(); the events it schedules are ordinary. Like a daemon thread,
  /// it never holds the process open on its own.
  TimerToken schedule_daemon_after(Time delay, EventFn fn, const char* site = nullptr);

  /// Drop a pending event. Returns true if the event was still queued (it
  /// will never run); false if it already ran, was already cancelled, or the
  /// token is stale/default. O(1): the slot is tombstoned and recycled when
  /// the wheel next touches it.
  bool cancel(TimerToken token);

  /// Run until no ordinary event is pending: the queue is empty, or only
  /// daemon events remain (they stay queued). now() is then the time of the
  /// last event executed.
  void run();

  /// Run events with timestamp <= `t`. Afterwards now() == max(now, t) in
  /// *both* outcomes — whether or not the queue drained — so callers can
  /// keep scheduling relative to the horizon they asked for. Returns true
  /// if events remain queued beyond `t`, false if the queue drained.
  bool run_until(Time t);

  /// Execute exactly one event if available. Returns false on empty queue.
  bool step();

  bool empty() const { return live_ == 0; }
  std::size_t pending_events() const { return live_; }
  std::uint64_t executed_events() const { return executed_; }
  /// Pending daemon events (counted in pending_events() too).
  std::size_t pending_daemon_events() const { return daemon_live_; }

  // --- event-loop profiler (opt-in; ~zero cost when disabled) ------------

  /// Start collecting profile counters (queue-depth high-water mark,
  /// per-site schedule counts, wall-clock throughput). Call before run().
  void enable_profiling();
  bool profiling_enabled() const { return profiling_; }

  /// Dump profiler counters into `c` under "sim." keys: executed/scheduled/
  /// cancelled event counts, cascades, queue_depth_hwm, events_per_sim_sec,
  /// events_per_wall_sec, and one "sim.site.<tag>" count per tagged site.
  void profile_into(Counters& c) const;

 private:
  static constexpr unsigned kLevelBits = 6;
  static constexpr unsigned kSlots = 1u << kLevelBits;          // 64
  static constexpr unsigned kLevels = 8;                        // 64^8 ns ≈ 3.26 days
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  static constexpr Time kRange = Time(1) << (kLevelBits * kLevels);
  static constexpr std::uint32_t kNil = ~std::uint32_t(0);

  struct Event {
    EventFn fn;          // 64 bytes, align 16
    Time t = 0;
    std::uint64_t seq = 0;  // 0 = slot free (live seqs start at 1)
    std::uint32_t next = kNil;
    bool cancelled = false;
    bool daemon = false;  // does not keep run() alive; fits the padding
  };
  static_assert(sizeof(Event) == sizeof(EventFn) + 32, "Event grew past its padding");
  struct Slot {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);
  /// Bucket a pending node by its timestamp relative to cur_.
  void place(std::uint32_t idx);
  void append(unsigned level, unsigned slot, std::uint32_t idx);
  /// Relink a level-0 slot in seq order (cascades can append out of order).
  void sort_slot(unsigned level, unsigned slot);
  /// Advance cur_ (cascading higher levels, pruning cancelled heads,
  /// migrating overflow) until the level-0 slot holding the next live event
  /// is at hand. Returns false when no live events remain.
  /// Locates the next pending tick, cascading/migrating as needed, but never
  /// commits the cursor past `horizon`: run_until(t) must leave the wheel
  /// able to accept schedule_at(now() == t) afterwards.
  bool find_next(Time* tick, Time horizon);
  /// Pop and run the head of the level-0 slot located by find_next().
  void execute_one(Time tick);

  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;
  Slot slots_[kLevels][kSlots];
  std::uint64_t occupied_[kLevels] = {};
  std::uint64_t unsorted_[kLevels] = {};
  std::multimap<Time, std::uint32_t> overflow_;  // t >= cur_ + kRange
  std::vector<std::uint32_t> scratch_;           // sort_slot workspace

  Time now_ = 0;
  Time cur_ = 0;  // wheel cursor: now_ <= observable time, cur_ <= next event
  std::uint64_t seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // scheduled, not yet executed or cancelled
  std::size_t daemon_live_ = 0;  // the daemon events among live_

  // Profiler state (all updates gated on profiling_).
  bool profiling_ = false;
  std::uint64_t prof_scheduled_ = 0;
  std::uint64_t prof_cancelled_ = 0;
  std::uint64_t prof_cascaded_ = 0;
  std::uint64_t prof_executed_at_enable_ = 0;
  std::size_t prof_depth_hwm_ = 0;
  std::chrono::steady_clock::time_point prof_wall_start_;
  std::map<std::string, std::uint64_t> prof_sites_;
};

}  // namespace afc::sim
