#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/simulation.h"
#include "sim/wait_list.h"

namespace afc::sim {

/// Multi-core CPU model for one server node: a pool of `cores` service
/// units. `co_await cpu.consume(ns)` occupies one core for `ns` of virtual
/// time (queueing FIFO behind other work when all cores are busy). This is
/// a multi-server queue rather than true processor sharing; it reproduces
/// the behaviour that matters here — saturation and queueing delay once
/// offered CPU work exceeds core capacity (the SimpleMessenger ceiling of
/// the paper's Fig. 12). consume() is a frame-free custom awaiter: one
/// event per grant, because it runs a dozen times per simulated I/O.
class CpuPool {
 public:
  CpuPool(Simulation& sim, unsigned cores) : sim_(sim), cores_(cores), free_(cores) {}
  CpuPool(const CpuPool&) = delete;
  CpuPool& operator=(const CpuPool&) = delete;

  class Consume : public WaitLink {
   public:
    Consume(CpuPool& p, Time ns) : p_(p), ns_(ns) {}
    bool await_ready() const { return ns_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      if (p_.free_ > 0) {
        p_.free_--;
        p_.run(h, ns_);
      } else {
        handle_ = h;
        enqueued_ = p_.sim_.now();
        p_.waiters_.push_back(this);
      }
    }
    void await_resume() const {}

   private:
    friend class CpuPool;
    CpuPool& p_;
    Time ns_;
    std::coroutine_handle<> handle_;
    Time enqueued_ = 0;
  };

  /// Occupy one core for `ns`.
  Consume consume(Time ns) { return Consume(*this, ns); }

  unsigned cores() const { return cores_; }
  Time busy_ns() const { return busy_ns_; }

  /// Fraction of total core-time spent busy since construction.
  double utilization() const {
    const Time elapsed = sim_.now();
    if (elapsed == 0) return 0.0;
    return double(busy_ns_) / (double(elapsed) * double(cores_));
  }

  std::size_t queued() const { return waiters_.size(); }
  Time total_queue_wait_ns() const { return queue_wait_ns_; }

 private:
  friend class Consume;

  void run(std::coroutine_handle<> h, Time ns) {
    sim_.schedule_after(
        ns,
        [this, h, ns] {
          busy_ns_ += ns;
          if (!waiters_.empty()) {
            const Consume* w = waiters_.pop_front();
            queue_wait_ns_ += sim_.now() - w->enqueued_;
            run(w->handle_, w->ns_);
          } else {
            free_++;
          }
          h.resume();
        },
        "cpu.grant");
  }

  Simulation& sim_;
  unsigned cores_;
  unsigned free_;
  WaitList<Consume> waiters_;
  Time busy_ns_ = 0;
  Time queue_wait_ns_ = 0;
};

}  // namespace afc::sim
