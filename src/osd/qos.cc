#include "osd/qos.h"

#include <algorithm>
#include <limits>

namespace afc::osd {

namespace {

/// Virtual-time increment of one op against an (iops, bandwidth) envelope,
/// in ns: the stricter of the two configured terms. Returns 0 when neither
/// term is configured (no envelope).
double cost_ns(double iops, double bw, std::uint64_t bytes) {
  double c = 0.0;
  if (iops > 0) c = std::max(c, 1e9 / iops);
  if (bw > 0) c = std::max(c, double(bytes) * 1e9 / bw);
  return c;
}

}  // namespace

QosScheduler::QosScheduler(sim::Simulation& sim, QosConfig cfg, Sink sink)
    : sim_(sim), cfg_(std::move(cfg)), sink_(std::move(sink)) {}

QosScheduler::~QosScheduler() {
  if (timer_armed_) sim_.cancel(timer_);
}

QosScheduler::Tenant& QosScheduler::tenant_state(std::uint32_t id) {
  auto [it, inserted] = tenants_.try_emplace(id);
  if (inserted) it->second.prof = cfg_.profile_for(id);
  return it->second;
}

std::uint64_t QosScheduler::dispatched(std::uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.dispatched;
}

void QosScheduler::enqueue(WorkItem item, std::uint32_t tenant, std::uint64_t bytes) {
  Tenant& t = tenant_state(tenant);
  const double now = double(sim_.now());
  if (t.q.empty()) {
    // Idle reset (dmClock's arrival-time clamp): a tenant returning from
    // idle competes from "now", it neither owes virtual time from past
    // activity nor spends banked credit beyond the one-op cap applied at
    // dispatch.
    t.r_next = std::max(t.r_next, now);
    t.p_tag = std::max(t.p_tag, now);
  }
  t.q.push_back(Queued{std::move(item), sim_.now(), bytes});
  queued_++;
  stats_.enqueued++;
  pump();
}

void QosScheduler::op_done() {
  if (in_flight_ > 0) in_flight_--;
  pump();
}

void QosScheduler::reset() {
  for (auto& [id, t] : tenants_) t.q.clear();
  queued_ = 0;
  in_flight_ = 0;
  if (timer_armed_) {
    sim_.cancel(timer_);
    timer_armed_ = false;
  }
}

void QosScheduler::dispatch(Tenant& t, bool reservation_phase, double now) {
  Queued qd = std::move(t.q.front());
  t.q.pop_front();
  queued_--;
  // Consume all tags regardless of serving phase; idle credit is capped at
  // one op (the max(tag, now - delta) clamp), so the limit stays a hard
  // ceiling of rate*T + 1 over any interval of length T.
  const std::uint64_t bytes = qd.bytes;
  if (t.prof.has_reservation()) {
    const double d = cost_ns(t.prof.reservation_iops, t.prof.reservation_bw, bytes);
    t.r_next = std::max(t.r_next, now - d) + d;
  }
  if (t.prof.has_limit()) {
    const double d = cost_ns(t.prof.limit_iops, t.prof.limit_bw, bytes);
    t.l_next = std::max(t.l_next, now - d) + d;
  }
  if (t.prof.weight > 0) {
    const double d = 1e9 / t.prof.weight;
    t.p_tag = std::max(t.p_tag, now - d) + d;
  }
  t.dispatched++;
  in_flight_++;
  stats_.dispatched++;
  if (reservation_phase) {
    stats_.reservation_grants++;
  } else {
    stats_.weight_grants++;
  }
  sink_(std::move(qd.item), qd.at);
}

void QosScheduler::pump() {
  while (queued_ > 0 && in_flight_ < cfg_.window) {
    const double now = double(sim_.now());
    // Phase 1 — reservation: most overdue floor first. The limit gates even
    // reservation grants (a sane profile keeps reservation <= limit).
    Tenant* pick = nullptr;
    double best = std::numeric_limits<double>::infinity();
    for (auto& [id, t] : tenants_) {
      if (t.q.empty() || !t.prof.has_reservation()) continue;
      if (t.r_next <= now && t.l_next <= now && t.r_next < best) {
        pick = &t;
        best = t.r_next;
      }
    }
    if (pick != nullptr) {
      dispatch(*pick, /*reservation_phase=*/true, now);
      continue;
    }
    // Phase 2 — weight: smallest proportional tag among limit-eligible
    // tenants. weight <= 0 means reservation-only: no surplus share.
    for (auto& [id, t] : tenants_) {
      if (t.q.empty() || t.prof.weight <= 0) continue;
      if (t.l_next <= now && t.p_tag < best) {
        pick = &t;
        best = t.p_tag;
      }
    }
    if (pick != nullptr) {
      dispatch(*pick, /*reservation_phase=*/false, now);
      continue;
    }
    // Every backlogged tenant is tag-blocked: wake when the earliest one
    // clears. Weight-bearing tenants unblock at l_next; reservation-only
    // tenants additionally need r_next to come due.
    double wake = std::numeric_limits<double>::infinity();
    for (auto& [id, t] : tenants_) {
      if (t.q.empty()) continue;
      const double at =
          t.prof.weight > 0 ? t.l_next : std::max(t.l_next, t.r_next);
      wake = std::min(wake, at);
    }
    if (wake != std::numeric_limits<double>::infinity()) {
      stats_.limit_deferrals++;
      arm_timer(Time(wake) + 1);
    }
    return;
  }
}

void QosScheduler::arm_timer(Time at) {
  if (timer_armed_ && timer_at_ <= at) return;
  if (timer_armed_) sim_.cancel(timer_);
  timer_at_ = at;
  timer_armed_ = true;
  QosScheduler* self = this;
  timer_ = sim_.schedule_at(
      at,
      [self] {
        self->timer_armed_ = false;
        self->pump();
      },
      "osd.qos.timer");
}

}  // namespace afc::osd
