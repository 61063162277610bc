#pragma once

#include <vector>

#include "cluster/map.h"
#include "common/stats.h"
#include "device/ssd.h"
#include "fault/plan.h"
#include "mon/plane.h"
#include "net/messenger.h"
#include "sim/simulation.h"

namespace afc::fault {

/// Arms a FaultPlan against a built cluster: schedules one simulator event
/// per fault (plus one per auto-clear) and applies the state change when it
/// fires. Everything is deterministic — an empty plan schedules nothing, so
/// constructing an injector cannot perturb a run.
///
/// Layering: the injector touches OSDs, devices, messengers and the cluster
/// map directly and never includes core/; core::ClusterSim offers the
/// convenience wrapper `install_faults()` that builds one over its members.
///
/// Crash semantics are physical: the OSD's messenger is blackholed (sends
/// and deliveries vanish, no CPU is charged for the dead daemon) and its
/// RAM is dropped (Osd::on_crash). A restart replays the journal
/// (Osd::on_restart) and lifts the blackhole. What the cluster learns from
/// either is the membership plane's business (mon/plane.h, docs/FAULTS.md
/// "injected vs detected"): the oracle marks the OSD down or up in CRUSH,
/// bumps the epoch and re-homes PGs through the recovery rule; detected
/// membership leaves detection to heartbeats and the monitor.
class FaultInjector {
 public:
  /// Faults address the OSDs of `plane.roster()`, read when each fault
  /// fires; `ssds[i]` is OSD i's data device. `endpoints` is every
  /// messenger whose connections may need link faults (all OSD messengers
  /// and, for completeness, the clients' and the monitor's).
  FaultInjector(sim::Simulation& sim, cluster::ClusterMap& cmap, mon::MembershipPlane& plane,
                std::vector<dev::SsdModel*> ssds, std::vector<net::Messenger*> endpoints,
                std::uint64_t seed);

  /// Schedule every event of `plan` (callable once per injector).
  void install(const FaultPlan& plan);

  /// Register an OSD added after construction (ClusterSim::add_node): its
  /// data device and its messenger, whose connections then take link
  /// faults. The OSD itself joins through the plane's roster.
  void attach_osd(dev::SsdModel& ssd, net::Messenger& messenger);

  Counters& counters() { return counters_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  void apply(std::size_t idx);
  void clear(std::size_t idx);
  void do_crash(std::uint32_t osd);
  void do_restart(std::uint32_t osd);
  /// kBitFlip on data media: flip one byte of a seeded-random object in a
  /// PG the OSD is currently acting for (so a scrub can find the damage);
  /// with `parity` (media=2), of an EC parity shard (index >= k) it holds
  /// at its acting-set position. Returns false when nothing qualifies.
  bool corrupt_audited_copy(std::uint32_t osd, std::uint64_t seed, bool parity);
  /// Apply `f` to both directions of every connection matching (osd, peer);
  /// peer == kAllPeers matches every link touching `osd`.
  void set_link_fault(std::uint32_t osd, std::uint32_t peer, const net::Connection::Fault& f);
  /// Count the recoveries the plane launched for a crash or restart.
  void count_recoveries(std::uint64_t n);

  sim::Simulation& sim_;
  cluster::ClusterMap& cmap_;
  mon::MembershipPlane& plane_;
  const std::vector<osd::Osd*>& osds_;  // the plane's roster
  std::vector<dev::SsdModel*> ssds_;
  std::vector<net::Messenger*> endpoints_;
  std::uint64_t seed_;
  FaultPlan plan_;
  Counters counters_;
  bool installed_ = false;
};

}  // namespace afc::fault
