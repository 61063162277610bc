#include "rt/throttle.h"

namespace afc::rt {

Throttle::Throttle(std::uint64_t capacity) : capacity_(capacity) {}

bool Throttle::acquire(std::uint64_t n) {
  std::unique_lock lk(mu_);
  const std::uint64_t ticket = next_ticket_++;
  const bool blocks = ticket != serving_ticket_ || used_ + n > capacity_;
  if (blocks) blocked_.fetch_add(1, std::memory_order_relaxed);
  cv_.wait(lk, [&] {
    return shutdown_ || (ticket == serving_ticket_ && used_ + n <= capacity_);
  });
  if (shutdown_) return false;
  used_ += n;
  serving_ticket_++;
  cv_.notify_all();
  return true;
}

bool Throttle::try_acquire(std::uint64_t n) {
  std::lock_guard lk(mu_);
  if (shutdown_ || next_ticket_ != serving_ticket_ || used_ + n > capacity_) return false;
  used_ += n;
  next_ticket_++;
  serving_ticket_++;
  return true;
}

void Throttle::release(std::uint64_t n) {
  {
    std::lock_guard lk(mu_);
    used_ = used_ > n ? used_ - n : 0;
  }
  cv_.notify_all();
}

void Throttle::set_capacity(std::uint64_t capacity) {
  {
    std::lock_guard lk(mu_);
    capacity_ = capacity;
  }
  cv_.notify_all();
}

void Throttle::shutdown() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::uint64_t Throttle::capacity() const {
  std::lock_guard lk(mu_);
  return capacity_;
}

std::uint64_t Throttle::in_use() const {
  std::lock_guard lk(mu_);
  return used_;
}

}  // namespace afc::rt
