#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace afc {

/// FIFO queue on a power-of-two ring. It allocates nothing until the first
/// push, starts at one slot and doubles when full, so an idle queue costs
/// nothing and a busy one allocates nothing once it has reached its working
/// depth. The queue never shrinks. The simulator's channels and the PG
/// pending queues use it where `std::deque` would allocate a 512-byte node
/// and its map up front.
template <class T>
class RingQueue {
 public:
  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  ~RingQueue() {
    while (size_ != 0) pop_front();
    if (ring_ != nullptr) std::allocator<T>().deallocate(ring_, slots_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots allocated: 0 until the first push, then a power of two.
  std::size_t slots() const { return slots_; }

  void push_back(T v) {
    if (size_ == slots_) grow();
    std::construct_at(&ring_[(head_ + size_) & (slots_ - 1)], std::move(v));
    size_++;
  }

  /// Remove and return the oldest element (the queue must not be empty).
  T pop_front() {
    T& slot = ring_[head_];
    T v = std::move(slot);
    std::destroy_at(&slot);
    head_ = (head_ + 1) & (slots_ - 1);
    size_--;
    return v;
  }

 private:
  void grow() {
    const std::size_t n = slots_ == 0 ? 1 : slots_ * 2;
    T* bigger = std::allocator<T>().allocate(n);
    for (std::size_t i = 0; i < size_; i++) {
      T& from = ring_[(head_ + i) & (slots_ - 1)];
      std::construct_at(&bigger[i], std::move(from));
      std::destroy_at(&from);
    }
    if (ring_ != nullptr) std::allocator<T>().deallocate(ring_, slots_);
    ring_ = bigger;
    slots_ = n;
    head_ = 0;
  }

  T* ring_ = nullptr;  // slots_ entries; [head_, head_ + size_) mod slots_ are live
  std::size_t slots_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace afc
