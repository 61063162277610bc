#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "osd/op.h"
#include "sim/simulation.h"

namespace afc::osd {

/// Per-tenant QoS declaration, mirroring the shape of YDB's TChannelProfile:
/// a named storage-pool kind plus read/write IOPS and bandwidth envelopes.
/// Semantics follow dmClock: `reservation` is a floor the scheduler honors
/// before any proportional sharing, `limit` is a hard ceiling never exceeded
/// even on an idle cluster, and `weight` divides whatever capacity is left
/// between the two. A zero reservation/limit means "none"; weight <= 0 with
/// a reservation means "reservation only, no share of the surplus".
///
/// IOPS and bandwidth terms compose per op: an op's virtual cost is the
/// stricter of the two (max of 1/iops and bytes/bandwidth), so a tenant
/// pushing large ops exhausts its envelope proportionally faster.
struct TenantProfile {
  std::uint32_t tenant = 0;      // class id matched against ClientIoMsg::tenant
  std::string pool_kind;         // label only (YDB PoolKind, e.g. "ssd")
  double reservation_iops = 0;   // guaranteed ops/s (0 = no reservation)
  double reservation_bw = 0;     // guaranteed bytes/s
  double limit_iops = 0;         // hard ceiling ops/s (0 = unlimited)
  double limit_bw = 0;           // hard ceiling bytes/s
  double weight = 1.0;           // proportional share of surplus capacity

  bool has_reservation() const { return reservation_iops > 0 || reservation_bw > 0; }
  bool has_limit() const { return limit_iops > 0 || limit_bw > 0; }
};

/// OSD-side QoS configuration: the tenant→profile table plus the dispatch
/// window. Off by default — when disabled the scheduler is never even
/// constructed and the dispatch path is byte-identical to the seed.
struct QosConfig {
  bool enabled = false;
  /// Ops admitted past the scheduler but not yet resolved (acked / read
  /// replied / failed). This is the "server" dmClock paces against: a slot
  /// frees on completion, and the scheduler picks the next op by tag order.
  unsigned window = 32;
  std::vector<TenantProfile> tenants;
  /// Ops whose tenant class has no profile entry (including tenant 0, the
  /// untenanted default) fall back to this profile.
  TenantProfile default_profile;

  const TenantProfile& profile_for(std::uint32_t tenant) const {
    for (const auto& p : tenants) {
      if (p.tenant == tenant) return p;
    }
    return default_profile;
  }
};

/// dmClock-style scheduler slotted between messenger dispatch and the
/// sharded OP_WQ. Client ops enqueue per-tenant FIFO; dispatch order is
/// chosen in two phases whenever a window slot is free:
///
///   1. reservation: among tenants whose reservation tag has come due (and
///      whose limit permits), serve the most overdue first. This is what
///      makes the floor a floor — reservation-eligible work preempts any
///      weight-phase candidate.
///   2. weight: among tenants whose limit permits, serve the smallest
///      proportional tag (virtual time spaced by 1/weight).
///
/// Every dispatch advances all three of the tenant's tags (dmClock assigns
/// all tags at arrival; serving a request consumes them regardless of which
/// phase served it), with accumulated idle credit capped at one op so a
/// silent tenant cannot burst past its limit when it returns. If every
/// backlogged tenant is limit-blocked, a timer wakes the scheduler at the
/// earliest tag expiry — the only case where QoS schedules simulator events.
class QosScheduler {
 public:
  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t reservation_grants = 0;  // phase-1 dispatches
    std::uint64_t weight_grants = 0;       // phase-2 dispatches
    std::uint64_t limit_deferrals = 0;     // pump passes that armed a timer
  };

  /// `sink` receives each dispatched item together with its enqueue time
  /// (for the kQosQueue trace span); it runs synchronously inside pump().
  using Sink = std::function<void(WorkItem item, Time enqueued_at)>;

  QosScheduler(sim::Simulation& sim, QosConfig cfg, Sink sink);
  ~QosScheduler();
  QosScheduler(const QosScheduler&) = delete;
  QosScheduler& operator=(const QosScheduler&) = delete;

  /// Park one client op; `bytes` is the payload size (write body or read
  /// length) used by the bandwidth terms. Dispatches synchronously when a
  /// window slot is free and the tenant's tags permit.
  void enqueue(WorkItem item, std::uint32_t tenant, std::uint64_t bytes);

  /// Downstream resolution (ack sent, read replied, op failed): frees a
  /// window slot and pumps.
  void op_done();

  /// Crash support: drop every parked op and all window accounting (the
  /// daemon's RAM is gone; parked ops die with it, like inflight_).
  void reset();

  const Stats& stats() const { return stats_; }
  std::uint64_t dispatched(std::uint32_t tenant) const;
  std::size_t queued() const { return queued_; }
  unsigned in_flight() const { return in_flight_; }

 private:
  struct Queued {
    WorkItem item;
    Time at = 0;
    std::uint64_t bytes = 0;
  };
  struct Tenant {
    TenantProfile prof;
    std::deque<Queued> q;
    // Virtual tags in ns; a tenant is reservation-eligible when r_next <=
    // now, limit-eligible when l_next <= now; p_tag orders the weight phase.
    double r_next = 0;
    double l_next = 0;
    double p_tag = 0;
    std::uint64_t dispatched = 0;
  };

  Tenant& tenant_state(std::uint32_t id);
  void pump();
  void dispatch(Tenant& t, bool reservation_phase, double now);
  void arm_timer(Time at);

  sim::Simulation& sim_;
  QosConfig cfg_;
  Sink sink_;
  std::map<std::uint32_t, Tenant> tenants_;  // ordered: deterministic scans
  unsigned in_flight_ = 0;
  std::size_t queued_ = 0;
  sim::TimerToken timer_;
  bool timer_armed_ = false;
  Time timer_at_ = 0;
  Stats stats_;
};

}  // namespace afc::osd
