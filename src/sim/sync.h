#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/wait_list.h"

namespace afc::sim {

/// Result of a timed wait. An enum rather than a bool so call sites read
/// unambiguously: `if (co_await cv.wait_for(t) == TimedOut::kYes)` cannot be
/// inverted silently the way `if (co_await cv.wait_for(t))` could (where the
/// reader must remember whether true meant "notified" or "expired").
enum class TimedOut { kNo, kYes };

/// Condition variable for simulated coroutines. Because the simulator is
/// single-threaded and resumptions go through the event queue, no mutex is
/// needed: callers re-check their predicate in a `while` loop and notify
/// *after* mutating state, which rules out lost wakeups.
class CondVar {
  struct Node : WaitLink {
    std::coroutine_handle<> handle;
    TimerToken* deadline = nullptr;  // a timed waiter's timeout event; null for wait()
    void (*on_wake)(Node*) = nullptr;  // an Until's re-check; null resumes `handle`
  };

 public:
  explicit CondVar(Simulation& sim) : sim_(sim) {}

  /// `co_await cv.until(cond)` is `while (!cond.ready()) co_await cv.wait();`
  /// followed by `cond.resume()`, the await's result, without the coroutine
  /// frame such a loop needs: the awaiter parks in its caller's frame. A
  /// notify unlinks it and schedules the same zero-delay "sync.cv_notify"
  /// event a plain waiter gets; when that event runs and `ready()` is false
  /// again (another coroutine got there first), the awaiter re-links at the
  /// tail without resuming, exactly where the loop's next wait() would
  /// queue. `ready()` runs once before the first suspension and once per
  /// wake, as the loop's condition does. See docs/MODEL.md ("Simulator
  /// core").
  template <class Cond>
  class [[nodiscard]] Until : Node {
   public:
    Until(CondVar& cv, Cond cond) : cv_(cv), cond_(std::move(cond)) {}
    bool await_ready() { return cond_.ready(); }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      on_wake = [](Node* n) { static_cast<Until*>(n)->wake(); };
      cv_.waiters_.push_back(this);
    }
    decltype(auto) await_resume() { return cond_.resume(); }

   private:
    void wake() {
      if (cond_.ready()) {
        handle.resume();
      } else {
        cv_.waiters_.push_back(this);
      }
    }
    CondVar& cv_;
    Cond cond_;
  };

  class Waiter : Node {
   public:
    explicit Waiter(CondVar& cv) : cv_(cv) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      cv_.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}

   private:
    CondVar& cv_;
  };

  /// Timed wait: resumes on notify (await returns TimedOut::kNo) or after
  /// `timeout` ns (TimedOut::kYes). Whichever side loses drops its pending
  /// state at cancel time — a notify cancels the deadline event off the
  /// timing wheel (no tombstone executes later), a timeout unlinks the
  /// waiter from the notify queue in O(1).
  class TimedWaiter : Node {
   public:
    TimedWaiter(CondVar& cv, Time timeout) : cv_(cv), timeout_(timeout) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      deadline = &token_;
      cv_.waiters_.push_back(this);
      token_ = cv_.sim_.schedule_after(timeout_, [w = this] { w->on_timeout(); },
                                       "sync.cv_timeout");
    }
    TimedOut await_resume() const noexcept {
      return timed_out_ ? TimedOut::kYes : TimedOut::kNo;
    }

   private:
    void on_timeout();
    CondVar& cv_;
    Time timeout_;
    TimerToken token_;
    bool timed_out_ = false;
  };

  /// Suspend until notified (spurious wakeups possible; re-check predicate).
  Waiter wait() { return Waiter(*this); }

  /// Suspend until notified or `timeout` ns pass; see TimedWaiter.
  TimedWaiter wait_for(Time timeout) { return TimedWaiter(*this, timeout); }

  /// Suspend until `cond.ready()` holds after a notify; see Until.
  template <class Cond>
  Until<Cond> until(Cond cond) {
    return Until<Cond>(*this, std::move(cond));
  }

  void notify_one();
  void notify_all();

  std::size_t waiters() const { return waiters_.size(); }

 private:
  Simulation& sim_;
  WaitList<Node> waiters_;
};

/// FIFO mutex for simulated coroutines, with contention statistics: the
/// placement-group lock of the paper is one of these, and Fig. 3's
/// "PG-lock wait" measurements are read straight from these counters.
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sim_(sim) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  class Locker : public WaitLink {
   public:
    Locker(Mutex& m) : m_(m) {}
    bool await_ready() {
      if (!m_.locked_) {
        m_.locked_ = true;
        m_.acquisitions_++;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      t0_ = m_.sim_.now();
      m_.contended_++;
      handle_ = h;
      m_.waiters_.push_back(this);
    }
    void await_resume() {
      // On the contended path ownership was transferred by unlock();
      // account the time we spent queued.
      if (t0_ != kNoWait) m_.total_wait_ns_ += m_.sim_.now() - t0_;
    }

   private:
    friend class Mutex;
    static constexpr Time kNoWait = ~Time(0);
    Mutex& m_;
    Time t0_ = kNoWait;
    std::coroutine_handle<> handle_;
  };

  /// `co_await mutex.lock()`. FIFO handoff: unlock passes ownership to the
  /// longest-waiting coroutine.
  Locker lock() { return Locker(*this); }

  /// Non-blocking acquire; returns true on success.
  bool try_lock();

  void unlock();

  bool is_locked() const { return locked_; }
  std::size_t waiters() const { return waiters_.size(); }

  // Contention statistics (virtual-time).
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t contended_acquisitions() const { return contended_; }
  Time total_wait_ns() const { return total_wait_ns_; }

 private:
  friend class Locker;
  Simulation& sim_;
  bool locked_ = false;
  WaitList<Locker> waiters_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t contended_ = 0;
  Time total_wait_ns_ = 0;
};

/// RAII guard for sim::Mutex. Acquire with `co_await`:
///   auto g = co_await ScopedLock::acquire(mutex);
class ScopedLock {
 public:
  static CoTask<ScopedLock> acquire(Mutex& m) {
    co_await m.lock();
    co_return ScopedLock(&m);
  }
  ScopedLock(ScopedLock&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
  ScopedLock& operator=(ScopedLock&& o) noexcept {
    if (this != &o) {
      release();
      m_ = std::exchange(o.m_, nullptr);
    }
    return *this;
  }
  ~ScopedLock() { release(); }
  void release() {
    if (m_) {
      m_->unlock();
      m_ = nullptr;
    }
  }

 private:
  explicit ScopedLock(Mutex* m) : m_(m) {}
  Mutex* m_;
};

/// Weighted FIFO counting semaphore. Models device channel pools, CPU
/// cores, and the paper's throttles (filestore_queue_max_ops/bytes,
/// osd_client_message_cap): `co_await sem.acquire(n)` blocks while fewer
/// than n units are available, and waiters are served strictly in order
/// (so a big request is not starved by small ones). acquire() is a custom
/// awaiter (no coroutine frame) because it sits on every hot path of the
/// simulator.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::uint64_t initial)
      : sim_(sim), available_(initial), capacity_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class Acquire : public WaitLink {
   public:
    Acquire(Semaphore& s, std::uint64_t n) : s_(s), n_(n) {}
    bool await_ready() {
      if (s_.waiters_.empty() && s_.available_ >= n_) {
        s_.available_ -= n_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      s_.blocked_++;
      enqueued_ = s_.sim_.now();
      handle_ = h;
      s_.waiters_.push_back(this);
    }
    void await_resume() {
      if (handle_) s_.total_wait_ns_ += s_.sim_.now() - enqueued_;
    }

   private:
    friend class Semaphore;
    Semaphore& s_;
    std::uint64_t n_;
    Time enqueued_ = 0;
    std::coroutine_handle<> handle_;
  };

  Acquire acquire(std::uint64_t n = 1) { return Acquire(*this, n); }
  bool try_acquire(std::uint64_t n = 1);
  void release(std::uint64_t n = 1);

  /// Change capacity at runtime (throttle re-tuning); extra units become
  /// available immediately, reductions take effect as units drain.
  void set_capacity(std::uint64_t cap);

  std::uint64_t available() const { return available_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t in_use() const { return capacity_ > available_ ? capacity_ - available_ : 0; }
  std::size_t waiters() const { return waiters_.size(); }

  std::uint64_t blocked_acquires() const { return blocked_; }
  Time total_wait_ns() const { return total_wait_ns_; }

 private:
  friend class Acquire;
  void dispatch_waiters();

  Simulation& sim_;
  std::uint64_t available_;
  std::uint64_t capacity_;
  WaitList<Acquire> waiters_;
  std::uint64_t blocked_ = 0;
  Time total_wait_ns_ = 0;
};

/// Fork/join helper: add() before spawning, done() in each task, and
/// `co_await wg.wait()` to join.
class WaitGroup {
  struct Joined {
    const WaitGroup* wg;
    bool ready() const { return wg->outstanding_ == 0; }
    void resume() const {}
  };

 public:
  explicit WaitGroup(Simulation& sim) : cv_(sim) {}

  void add(std::uint64_t n = 1) { outstanding_ += n; }
  void done();
  CondVar::Until<Joined> wait() { return cv_.until(Joined{this}); }
  std::uint64_t outstanding() const { return outstanding_; }

 private:
  CondVar cv_;
  std::uint64_t outstanding_ = 0;
};

/// One-shot event: wait() suspends until set() is called (then never blocks
/// again). Used for per-op completion signalling.
class OneShot {
  struct IsSet {
    const OneShot* o;
    bool ready() const { return o->set_; }
    void resume() const {}
  };

 public:
  /// A timed wait that does not suspend once set() has been called.
  class TimedWait : public CondVar::TimedWaiter {
   public:
    TimedWait(OneShot& o, Time timeout) : TimedWaiter(o.cv_, timeout), o_(o) {}
    bool await_ready() const noexcept { return o_.set_; }

   private:
    const OneShot& o_;
  };

  explicit OneShot(Simulation& sim) : cv_(sim) {}
  CondVar::Until<IsSet> wait() { return cv_.until(IsSet{this}); }
  /// Wait with a deadline: TimedOut::kNo if set() arrived within `timeout`
  /// ns, TimedOut::kYes otherwise. Only set() notifies, so a single timed
  /// wait suffices (no spurious wakeups).
  TimedWait wait_for(Time timeout) { return TimedWait(*this, timeout); }
  void set() {
    set_ = true;
    cv_.notify_all();
  }

 private:
  CondVar cv_;
  bool set_ = false;
};

}  // namespace afc::sim
