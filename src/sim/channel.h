#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/sync.h"
#include "sim/task.h"

namespace afc::sim {

/// Bounded FIFO channel between simulated coroutines — the model for every
/// thread-handoff queue in the OSD (PG queues, journal queue, filestore op
/// queue, logger queue). capacity 0 means unbounded. pop() returns nullopt
/// once the channel is closed and drained, which is how worker coroutines
/// shut down cleanly at the end of a run.
///
/// Storage is a power-of-two ring that stays unallocated until the first
/// push and doubles when full, so an idle channel costs nothing and a busy
/// one allocates nothing once it has reached its working depth.
template <class T>
class Channel {
 public:
  Channel(Simulation& sim, std::size_t capacity = 0)
      : capacity_(capacity), not_empty_(sim), not_full_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    while (size_ != 0) pop_front();
    release();
  }

  /// Blocking push (suspends while full). Pushing to a closed channel is a
  /// programming error and aborts.
  CoTask<void> push(T v) {
    while (capacity_ != 0 && size_ >= capacity_ && !closed_) {
      blocked_pushes_++;
      co_await not_full_.wait();
    }
    if (closed_) std::abort();
    push_back(std::move(v));
    pushes_++;
    if (size_ > max_depth_) max_depth_ = size_;
    not_empty_.notify_one();
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T v) {
    if (closed_) return false;
    if (capacity_ != 0 && size_ >= capacity_) return false;
    push_back(std::move(v));
    pushes_++;
    if (size_ > max_depth_) max_depth_ = size_;
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt when closed and empty.
  CoTask<std::optional<T>> pop() {
    while (size_ == 0 && !closed_) co_await not_empty_.wait();
    if (size_ == 0) co_return std::nullopt;
    T v = pop_front();
    not_full_.notify_one();
    co_return std::optional<T>(std::move(v));
  }

  /// Blocking drain: suspends until at least one item is queued (or the
  /// channel closes), then returns everything queued at that moment. One
  /// wakeup serves the whole backlog — the sharded-dispatch receive model,
  /// where a shard worker amortizes its wakeup cost over every frame that
  /// arrived while it slept. An empty result means closed-and-drained.
  CoTask<std::vector<T>> pop_all() {
    while (size_ == 0 && !closed_) co_await not_empty_.wait();
    std::vector<T> out = take_all();
    if (!out.empty()) not_full_.notify_all();
    co_return out;
  }

  /// Drain everything currently queued without blocking.
  std::vector<T> drain() {
    std::vector<T> out = take_all();
    not_full_.notify_all();
    return out;
  }

  void close() {
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots the ring has allocated (0 until the first push).
  std::size_t ring_slots() const { return slots_; }
  std::size_t capacity() const { return capacity_; }

  std::uint64_t total_pushes() const { return pushes_; }
  std::uint64_t blocked_pushes() const { return blocked_pushes_; }
  std::size_t max_depth() const { return max_depth_; }

 private:
  void push_back(T v) {
    if (size_ == slots_) grow();
    std::construct_at(&ring_[(head_ + size_) & (slots_ - 1)], std::move(v));
    size_++;
  }
  T pop_front() {
    T& slot = ring_[head_];
    T v = std::move(slot);
    std::destroy_at(&slot);
    head_ = (head_ + 1) & (slots_ - 1);
    size_--;
    return v;
  }
  std::vector<T> take_all() {
    std::vector<T> out;
    out.reserve(size_);
    while (size_ != 0) out.push_back(pop_front());
    return out;
  }
  void grow() {
    const std::size_t n = slots_ == 0 ? 4 : slots_ * 2;
    T* bigger = std::allocator<T>().allocate(n);
    for (std::size_t i = 0; i < size_; i++) {
      T& from = ring_[(head_ + i) & (slots_ - 1)];
      std::construct_at(&bigger[i], std::move(from));
      std::destroy_at(&from);
    }
    release();
    ring_ = bigger;
    slots_ = n;
    head_ = 0;
  }
  void release() {
    if (ring_ != nullptr) std::allocator<T>().deallocate(ring_, slots_);
  }

  std::size_t capacity_;
  T* ring_ = nullptr;  // slots_ entries; [head_, head_ + size_) mod slots_ are live
  std::size_t slots_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
  CondVar not_empty_;
  CondVar not_full_;
  std::uint64_t pushes_ = 0;
  std::uint64_t blocked_pushes_ = 0;
  std::size_t max_depth_ = 0;
};

}  // namespace afc::sim
