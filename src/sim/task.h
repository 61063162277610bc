#pragma once

#include <coroutine>
#include <cstddef>
#include <vector>
#include <cstdlib>
#include <exception>
#include <optional>
#include <utility>

#include "sim/simulation.h"

namespace afc::sim {

/// Thread-local size-class pool for coroutine frames. The simulator
/// allocates a handful of frames per simulated I/O; recycling them through
/// free lists removes most of the remaining malloc traffic.
class FramePool {
 public:
  static void* alloc(std::size_t sz) {
    const std::size_t cls = size_class(sz);
    if (cls >= kClasses) return ::operator new(sz);
    auto& list = lists()[cls];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    return ::operator new((cls + 1) * kGranule);
  }

  static void release(void* p, std::size_t sz) {
    const std::size_t cls = size_class(sz);
    if (cls >= kClasses) {
      ::operator delete(p);
      return;
    }
    auto& list = lists()[cls];
    if (list.size() < kMaxPerClass) {
      list.push_back(p);
    } else {
      ::operator delete(p);
    }
  }

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 20;  // up to 1280 bytes pooled
  static constexpr std::size_t kMaxPerClass = 4096;

  static std::size_t size_class(std::size_t sz) { return (sz + kGranule - 1) / kGranule - 1; }
  static std::vector<void*>* lists() {
    thread_local std::vector<void*> lists_[kClasses];
    return lists_;
  }
};

/// Lazily-started awaitable coroutine returning T. The standard structured
/// task shape: a parent `co_await`s a child CoTask; the child starts on
/// await, inline on the parent's stack. A child that completes without
/// suspending returns to the parent like an ordinary call, so a loop of
/// synchronous children runs in constant stack; a child that suspended
/// resumes the parent by symmetric transfer at completion. The frame is
/// destroyed when the CoTask object is destroyed (after the parent consumed
/// the result), so lifetimes nest like ordinary calls.
///
/// Simulated code must not throw across suspension points: an escaped
/// exception terminates the process (a simulator bug, not a recoverable
/// condition).
template <class T>
class [[nodiscard]] CoTask {
  struct Promise;

 public:
  using promise_type = Promise;
  using Handle = std::coroutine_handle<Promise>;

  CoTask(CoTask&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;
  CoTask& operator=(CoTask&& o) noexcept {
    if (this != &o) {
      if (h_) h_.destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~CoTask() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> parent) noexcept {
    // Start the child now; this returns at its first suspension. Until it
    // does, the child has no continuation, so finishing here returns to
    // this frame instead of resuming the parent on top of it.
    h_.resume();
    if (h_.done()) return false;  // the parent continues on the same stack
    h_.promise().continuation = parent;
    return true;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) {
      return std::move(*h_.promise().value);
    }
  }

 private:
  struct PromiseBase {
    std::coroutine_handle<> continuation;

    static void* operator new(std::size_t sz) { return FramePool::alloc(sz); }
    static void operator delete(void* p, std::size_t sz) { FramePool::release(p, sz); }

    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() noexcept { std::terminate(); }
  };

  struct PromiseValue : PromiseBase {
    std::optional<T> value;
    template <class U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
    CoTask get_return_object() { return CoTask(Handle::from_promise(static_cast<Promise&>(*this))); }
  };
  struct PromiseVoid : PromiseBase {
    void return_void() {}
    CoTask get_return_object() { return CoTask(Handle::from_promise(static_cast<Promise&>(*this))); }
  };
  struct Promise : std::conditional_t<std::is_void_v<T>, PromiseVoid, PromiseValue> {};

  explicit CoTask(Handle h) : h_(h) {}
  Handle h_;
};

/// Root coroutine type for detached ("thread-like") simulated activities.
/// Eagerly started, self-destroying. Use spawn() rather than writing one of
/// these directly.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t sz) { return FramePool::alloc(sz); }
    static void operator delete(void* p, std::size_t sz) { FramePool::release(p, sz); }
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

namespace detail {
inline Detached spawn_impl(CoTask<void> task) {
  co_await task;
}
template <class Fn>
inline Detached spawn_fn_impl(Fn fn) {
  auto task = fn();
  co_await task;
}
}  // namespace detail

/// Launch `task` as a detached simulated activity. It runs immediately until
/// its first suspension, then continues under the event loop. The coroutine
/// frame is released when the task finishes.
inline void spawn(CoTask<void> task) { detail::spawn_impl(std::move(task)); }

/// Launch `fn()` (returning CoTask<void>) detached, keeping `fn`'s captures
/// alive for the task's whole lifetime. Use when the lambda owns state the
/// coroutine needs (a plain `spawn(lambda())` would drop the captures at the
/// first suspension).
template <class Fn>
void spawn_fn(Fn fn) {
  detail::spawn_fn_impl(std::move(fn));
}

/// Awaitable that suspends the current coroutine for `delay` virtual ns.
/// Even a zero delay yields through the event queue (fair round-robin).
/// `site` feeds the event-loop profiler's per-call-site counts.
class Delay {
 public:
  Delay(Simulation& sim, Time delay, const char* site = "sim.delay")
      : sim_(sim), delay_(delay), site_(site) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.schedule_after(delay_, [h] { h.resume(); }, site_);
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  Time delay_;
  const char* site_;
};

inline Delay delay(Simulation& sim, Time d, const char* site = "sim.delay") {
  return Delay(sim, d, site);
}
inline Delay yield(Simulation& sim) { return Delay(sim, 0, "sim.yield"); }

/// Cancellable one-shot sleep. `co_await timer.sleep(d)` suspends for `d`
/// virtual ns and resumes with `true`; a concurrent `cancel()` drops the
/// pending wheel event (no tombstone executes at the deadline) and resumes
/// the sleeper immediately with `false`. One sleep may be in flight per
/// Timer, and the Timer must outlive it — embed it in the owning object
/// (see net::Connection's Nagle stall).
class Timer {
 public:
  explicit Timer(Simulation& sim) : sim_(sim) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  class Sleep {
   public:
    Sleep(Timer& t, Time d) : t_(t), d_(d) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      t_.h_ = h;
      t_.cancelled_ = false;
      t_.armed_ = true;
      t_.token_ = t_.sim_.schedule_after(d_, [t = &t_] { t->fire(); }, "sim.timer");
    }
    /// true: slept the full duration; false: cancel() cut it short.
    bool await_resume() const noexcept { return !t_.cancelled_; }

   private:
    Timer& t_;
    Time d_;
  };

  Sleep sleep(Time d) { return Sleep(*this, d); }

  /// Drop the pending deadline and wake the sleeper now (on the next
  /// event-loop turn, like every resumption). Returns false when no sleep
  /// is in flight or the deadline already fired.
  bool cancel() {
    if (!armed_ || !sim_.cancel(token_)) return false;
    cancelled_ = true;
    sim_.schedule_after(0, [t = this] { t->fire(); }, "sim.timer_cancel");
    return true;
  }

  bool armed() const { return armed_; }

 private:
  void fire() {
    armed_ = false;
    auto h = h_;
    h_ = {};
    h.resume();
  }

  Simulation& sim_;
  std::coroutine_handle<> h_{};
  TimerToken token_;
  bool armed_ = false;
  bool cancelled_ = false;
};

}  // namespace afc::sim
