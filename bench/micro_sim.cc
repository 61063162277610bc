// Microbenchmark of the simulator event core (sim::Simulation's timing
// wheel) against an in-binary copy of the seed's binary-heap scheduler.
// Three pure-scheduler workloads, no storage model in the way:
//
//   hot_chain      - schedule/run ping-pong chains at event-queue cadence
//                    (0..10us horizons), the shape of sync.h wakeups and
//                    CPU grants;
//   mixed_horizons - pseudo-random horizons from 0 ns to 50 ms, the shape
//                    of device latencies + Nagle stalls + GC pauses, which
//                    exercises the wheel's levels and cascades;
//   cancel_heavy   - a work loop arming a 10 ms timeout per op and
//                    cancelling it on the next op (the CondVar::wait_for
//                    pattern). The wheel drops cancelled timers; the heap
//                    must execute them as tombstones.
//
// Prints JSON so BENCH_*.json tracking can diff events_per_sec_wall across
// PRs. AFC_SIM_PROFILE=1 additionally dumps the event-loop profiler for the
// wheel runs to stderr.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <queue>
#include <vector>

#include "common/stats.h"
#include "core/trace.h"
#include "sim/simulation.h"

using namespace afc;

namespace {

// --- seed-identical binary-heap scheduler (the "before") --------------------

class HeapSim {
 public:
  using TimerId = std::uint64_t;

  Time now() const { return now_; }

  void schedule_after(Time d, sim::EventFn fn) { schedule_at(now_ + d, fn); }

  /// Cancellable timers the only way a heap without handles can do them:
  /// the event stays queued and executes as a tombstone that checks a flag.
  TimerId arm(Time d, std::uint64_t* fired) {
    flags_.push_back(0);
    const TimerId id = flags_.size() - 1;
    schedule_after(d, [this, id, fired] {
      if (!flags_[id]) (*fired)++;
    });
    return id;
  }
  void disarm(TimerId id) { flags_[id] = 1; }

  void run() {
    while (!events_.empty()) {
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      now_ = ev.t;
      executed_++;
      ev.fn();
    }
  }

  std::uint64_t executed_events() const { return executed_; }
  bool profiling_enabled() const { return false; }
  void profile_dump(const char*) const {}

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    sim::EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void schedule_at(Time t, sim::EventFn fn) {
    if (t < now_) t = now_;
    events_.push(Event{t, seq_++, fn});
  }

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::vector<char> flags_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
};

// --- timing-wheel adapter (the "after") -------------------------------------

class WheelSim {
 public:
  using TimerId = sim::TimerToken;

  WheelSim() {
    if (trace::Collector::profile_requested()) sim_.enable_profiling();
  }

  Time now() const { return sim_.now(); }
  void schedule_after(Time d, sim::EventFn fn) { sim_.schedule_after(d, fn, "bench.event"); }
  TimerId arm(Time d, std::uint64_t* fired) {
    return sim_.schedule_after(d, [fired] { (*fired)++; }, "bench.timeout");
  }
  void disarm(TimerId id) { sim_.cancel(id); }
  void run() { sim_.run(); }
  std::uint64_t executed_events() const { return sim_.executed_events(); }
  bool profiling_enabled() const { return sim_.profiling_enabled(); }
  void profile_dump(const char* scenario) const {
    Counters prof;
    sim_.profile_into(prof);
    std::fprintf(stderr, "--- sim profile: %s ---\n%s", scenario, prof.to_string().c_str());
  }

 private:
  sim::Simulation sim_;
};

// --- scenarios ---------------------------------------------------------------

template <class Sim>
struct Chain {
  Sim* sim;
  std::uint64_t* budget;
  unsigned i = 0;
  void step() {
    static constexpr Time kDeltas[4] = {0, 50, 1 * kMicrosecond, 10 * kMicrosecond};
    if (*budget == 0) return;
    (*budget)--;
    sim->schedule_after(kDeltas[i++ & 3], [this] { step(); });
  }
};

template <class Sim>
std::uint64_t scenario_hot_chain(Sim& sim, std::uint64_t events) {
  std::uint64_t budget = events;
  std::vector<Chain<Sim>> chains(64, Chain<Sim>{&sim, &budget});
  for (auto& c : chains) c.step();
  sim.run();
  return sim.executed_events();
}

template <class Sim>
struct MixedActor {
  Sim* sim;
  std::uint64_t* budget;
  std::uint32_t state;
  void step() {
    if (*budget == 0) return;
    (*budget)--;
    state = state * 1664525u + 1013904223u;  // LCG: identical horizon stream per actor
    // Horizons from same-tick to 50 ms: every wheel level below the overflow
    // map gets traffic, and far timers cascade down as the clock approaches.
    static constexpr Time kHorizons[8] = {0,
                                          200,
                                          3 * kMicrosecond,
                                          14 * kMicrosecond,
                                          90 * kMicrosecond,
                                          800 * kMicrosecond,
                                          6 * kMillisecond,
                                          50 * kMillisecond};
    sim->schedule_after(kHorizons[state >> 29], [this] { step(); });
  }
};

template <class Sim>
std::uint64_t scenario_mixed_horizons(Sim& sim, std::uint64_t events) {
  std::uint64_t budget = events;
  std::vector<MixedActor<Sim>> actors;
  actors.reserve(256);
  for (std::uint32_t a = 0; a < 256; a++) {
    actors.push_back(MixedActor<Sim>{&sim, &budget, 0x9e3779b9u * (a + 1)});
  }
  for (auto& a : actors) a.step();
  sim.run();
  return sim.executed_events();
}

template <class Sim>
struct CancelActor {
  Sim* sim;
  std::uint64_t* budget;
  std::uint64_t* timeouts_fired;
  typename Sim::TimerId pending{};
  bool armed = false;
  void step() {
    if (armed) sim->disarm(pending);  // previous op "completed in time"
    if (*budget == 0) return;
    (*budget)--;
    pending = sim->arm(10 * kMillisecond, timeouts_fired);
    armed = true;
    sim->schedule_after(1 * kMicrosecond, [this] { step(); });
  }
};

template <class Sim>
std::uint64_t scenario_cancel_heavy(Sim& sim, std::uint64_t ops, std::uint64_t* timeouts_fired) {
  std::uint64_t budget = ops;
  std::vector<CancelActor<Sim>> actors(32, CancelActor<Sim>{&sim, &budget, timeouts_fired});
  for (auto& a : actors) a.step();
  sim.run();
  return sim.executed_events();
}

// --- harness -----------------------------------------------------------------

struct Result {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec_wall = 0.0;
};

template <class Fn>
Result timed(Fn fn) {
  const auto t0 = std::chrono::steady_clock::now();
  Result r;
  r.events = fn();
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  r.events_per_sec_wall = r.events / (r.wall_ms / 1000.0);
  return r;
}

void print_pair(const char* name, const Result& wheel, const Result& heap, bool last) {
  std::printf("    \"%s\": {\n", name);
  std::printf("      \"wheel\": {\"events\": %llu, \"wall_ms\": %.1f, \"events_per_sec_wall\": %.0f},\n",
              (unsigned long long)wheel.events, wheel.wall_ms, wheel.events_per_sec_wall);
  std::printf("      \"heap\": {\"events\": %llu, \"wall_ms\": %.1f, \"events_per_sec_wall\": %.0f},\n",
              (unsigned long long)heap.events, heap.wall_ms, heap.events_per_sec_wall);
  std::printf("      \"speedup_wall\": %.2f\n", heap.wall_ms / wheel.wall_ms);
  std::printf("    }%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  constexpr std::uint64_t kHotEvents = 8'000'000;
  constexpr std::uint64_t kMixedEvents = 4'000'000;
  constexpr std::uint64_t kCancelOps = 2'000'000;

  Result w_hot, h_hot, w_mixed, h_mixed, w_cancel, h_cancel;
  std::uint64_t w_fired = 0, h_fired = 0;

  {
    WheelSim s;
    w_hot = timed([&] { return scenario_hot_chain(s, kHotEvents); });
    if (s.profiling_enabled()) s.profile_dump("hot_chain");
  }
  {
    HeapSim s;
    h_hot = timed([&] { return scenario_hot_chain(s, kHotEvents); });
  }
  {
    WheelSim s;
    w_mixed = timed([&] { return scenario_mixed_horizons(s, kMixedEvents); });
    if (s.profiling_enabled()) s.profile_dump("mixed_horizons");
  }
  {
    HeapSim s;
    h_mixed = timed([&] { return scenario_mixed_horizons(s, kMixedEvents); });
  }
  {
    WheelSim s;
    w_cancel = timed([&] { return scenario_cancel_heavy(s, kCancelOps, &w_fired); });
    if (s.profiling_enabled()) s.profile_dump("cancel_heavy");
  }
  {
    HeapSim s;
    h_cancel = timed([&] { return scenario_cancel_heavy(s, kCancelOps, &h_fired); });
  }

  std::printf("{\n  \"bench\": \"micro_sim\",\n  \"scenarios\": {\n");
  print_pair("hot_chain", w_hot, h_hot, false);
  print_pair("mixed_horizons", w_mixed, h_mixed, false);
  print_pair("cancel_heavy", w_cancel, h_cancel, true);
  std::printf("  },\n");
  // The wheel drops cancelled timeouts; the heap executes them as tombstones
  // (visible as extra events above). Neither may fire a cancelled timeout.
  std::printf("  \"cancel_timeouts_fired\": {\"wheel\": %llu, \"heap\": %llu},\n",
              (unsigned long long)w_fired, (unsigned long long)h_fired);
  const double total_wheel = w_hot.wall_ms + w_mixed.wall_ms + w_cancel.wall_ms;
  const double total_heap = h_hot.wall_ms + h_mixed.wall_ms + h_cancel.wall_ms;
  std::printf("  \"total_speedup_wall\": %.2f\n}\n", total_heap / total_wheel);
  return 0;
}
