#include "sim/sync.h"

namespace afc::sim {

void CondVar::notify_one() {
  if (waiters_.empty()) return;
  Node* n = waiters_.pop_front();
  // A timed waiter's deadline event is dropped off the wheel right here,
  // instead of executing as a tombstone at the deadline.
  if (n->deadline != nullptr) sim_.cancel(*n->deadline);
  if (n->on_wake != nullptr) {
    // An Until re-checks its condition when the event runs; it lives in its
    // suspended caller's frame until then.
    sim_.schedule_after(0, [n] { n->on_wake(n); }, "sync.cv_notify");
    return;
  }
  const auto h = n->handle;
  sim_.schedule_after(0, [h] { h.resume(); }, "sync.cv_notify");
}

void CondVar::notify_all() {
  while (!waiters_.empty()) notify_one();
}

void CondVar::TimedWaiter::on_timeout() {
  // A notify would have cancelled this event, so the waiter is still queued.
  timed_out_ = true;
  cv_.waiters_.erase(this);
  handle.resume();
}

bool Mutex::try_lock() {
  if (locked_) return false;
  locked_ = true;
  acquisitions_++;
  return true;
}

void Mutex::unlock() {
  if (waiters_.empty()) {
    locked_ = false;
    return;
  }
  // FIFO ownership handoff: the lock stays held and the next waiter resumes
  // as the owner on the next event-loop turn.
  const auto h = waiters_.pop_front()->handle_;
  acquisitions_++;
  sim_.schedule_after(0, [h] { h.resume(); }, "sync.mutex_handoff");
}

bool Semaphore::try_acquire(std::uint64_t n) {
  if (!waiters_.empty() || available_ < n) return false;
  available_ -= n;
  return true;
}

void Semaphore::release(std::uint64_t n) {
  available_ += n;
  // After a capacity shrink, in-use units can exceed the new capacity;
  // their release must not over-credit the pool.
  if (available_ > capacity_) available_ = capacity_;
  dispatch_waiters();
}

void Semaphore::set_capacity(std::uint64_t cap) {
  if (cap >= capacity_) {
    available_ += cap - capacity_;
  } else {
    const std::uint64_t cut = capacity_ - cap;
    available_ = available_ > cut ? available_ - cut : 0;
  }
  capacity_ = cap;
  dispatch_waiters();
}

void Semaphore::dispatch_waiters() {
  while (!waiters_.empty() && waiters_.front()->n_ <= available_) {
    Acquire* w = waiters_.pop_front();
    available_ -= w->n_;
    const auto h = w->handle_;
    // Resume through the event queue: `w` lives on the suspended coroutine's
    // frame and stays valid until that coroutine runs.
    sim_.schedule_after(0, [h] { h.resume(); }, "sync.sem_grant");
  }
}

void WaitGroup::done() {
  if (outstanding_ > 0) {
    outstanding_--;
    if (outstanding_ == 0) cv_.notify_all();
  }
}

}  // namespace afc::sim
