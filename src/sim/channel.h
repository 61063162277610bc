#pragma once

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring_queue.h"
#include "sim/sync.h"

namespace afc::sim {

/// Bounded FIFO channel between simulated coroutines — the model for every
/// thread-handoff queue in the OSD (PG queues, journal queue, filestore op
/// queue, logger queue). capacity 0 means unbounded. pop() returns nullopt
/// once the channel is closed and drained, which is how worker coroutines
/// shut down cleanly at the end of a run.
///
/// Storage is a RingQueue, so an idle channel costs nothing. push, pop and
/// pop_all are CondVar::Until awaiters: a parked producer or consumer lives
/// in its caller's coroutine frame and allocates nothing.
template <class T>
class Channel {
  /// `pop()`: ready once an item is queued or the channel closed.
  struct PopOne {
    Channel* ch;
    bool ready() const { return !ch->q_.empty() || ch->closed_; }
    std::optional<T> resume() {
      if (ch->q_.empty()) return std::nullopt;
      std::optional<T> v(ch->q_.pop_front());
      ch->not_full_.notify_one();
      return v;
    }
  };
  /// `pop_all()`: the same wait, then the whole backlog.
  struct PopAll {
    Channel* ch;
    bool ready() const { return !ch->q_.empty() || ch->closed_; }
    std::vector<T> resume() {
      std::vector<T> out = ch->take_all();
      if (!out.empty()) ch->not_full_.notify_all();
      return out;
    }
  };
  /// `push(v)`: ready while there is room; each check that finds the
  /// channel full counts one blocked push.
  struct PushOne {
    Channel* ch;
    T v;
    bool ready() {
      if (ch->capacity_ != 0 && ch->q_.size() >= ch->capacity_ && !ch->closed_) {
        ch->blocked_pushes_++;
        return false;
      }
      return true;
    }
    void resume() {
      if (ch->closed_) std::abort();
      ch->enqueue(std::move(v));
    }
  };

 public:
  Channel(Simulation& sim, std::size_t capacity = 0)
      : capacity_(capacity), not_empty_(sim), not_full_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocking push (suspends while full). Pushing to a closed channel is a
  /// programming error and aborts.
  CondVar::Until<PushOne> push(T v) { return not_full_.until(PushOne{this, std::move(v)}); }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T v) {
    if (closed_) return false;
    if (capacity_ != 0 && q_.size() >= capacity_) return false;
    enqueue(std::move(v));
    return true;
  }

  /// Blocking pop; nullopt when closed and empty.
  CondVar::Until<PopOne> pop() { return not_empty_.until(PopOne{this}); }

  /// Blocking drain: suspends until at least one item is queued (or the
  /// channel closes), then returns everything queued at that moment. One
  /// wakeup serves the whole backlog — the sharded-dispatch receive model,
  /// where a shard worker amortizes its wakeup cost over every frame that
  /// arrived while it slept. An empty result means closed-and-drained.
  CondVar::Until<PopAll> pop_all() { return not_empty_.until(PopAll{this}); }

  /// Drain everything currently queued without blocking.
  std::vector<T> drain() {
    std::vector<T> out = take_all();
    not_full_.notify_all();
    return out;
  }

  /// Close the channel: every parked consumer, then every parked producer,
  /// wakes in FIFO order.
  void close() {
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return q_.size(); }
  bool empty() const { return q_.empty(); }
  /// Slots the ring has allocated (0 until the first push).
  std::size_t ring_slots() const { return q_.slots(); }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t total_pushes() const { return pushes_; }
  std::uint64_t blocked_pushes() const { return blocked_pushes_; }
  std::size_t max_depth() const { return max_depth_; }

 private:
  void enqueue(T v) {
    q_.push_back(std::move(v));
    pushes_++;
    if (q_.size() > max_depth_) max_depth_ = q_.size();
    not_empty_.notify_one();
  }
  std::vector<T> take_all() {
    std::vector<T> out;
    out.reserve(q_.size());
    while (!q_.empty()) out.push_back(q_.pop_front());
    return out;
  }

  std::size_t capacity_;
  RingQueue<T> q_;
  bool closed_ = false;
  CondVar not_empty_;  // parked pop / pop_all awaiters
  CondVar not_full_;   // parked push awaiters
  std::uint64_t pushes_ = 0;
  std::uint64_t blocked_pushes_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace afc::sim
