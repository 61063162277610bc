#pragma once

#include <vector>

#include "cluster/map.h"
#include "common/stats.h"
#include "device/ssd.h"
#include "fault/plan.h"
#include "net/messenger.h"
#include "osd/recovery.h"
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
/// Crash semantics: the OSD's messenger is blackholed (sends and deliveries
/// vanish, no CPU is charged for the dead daemon), the OSD is marked down
/// in CRUSH and the epoch bumps, so clients and peers re-target. Every
/// re-homed PG then goes through the recovery rule of osd/recovery.h:
/// members get the new acting set, targets recover asynchronously. Restart
/// reverses the blackhole + down-mark, and the same rule backfills the
/// returned OSD, which may have missed writes while dead.
class FaultInjector {
 public:
  /// `osds[i]` must be the OSD with id i; `ssds[i]` its data device.
  /// `endpoints` is every messenger whose connections may need link faults
  /// (all OSD messengers and, for completeness, the clients').
  FaultInjector(sim::Simulation& sim, cluster::ClusterMap& cmap,
                std::vector<osd::Osd*> osds, std::vector<dev::SsdModel*> ssds,
                std::vector<net::Messenger*> endpoints, std::uint64_t seed);

  /// Schedule every event of `plan` (callable once per injector).
  void install(const FaultPlan& plan);

  /// Detected-mode membership (docs/FAULTS.md "injected vs detected"):
  /// crashes and restarts become purely physical — blackhole the messenger
  /// and drop volatile state, but never touch CRUSH, never bump the epoch,
  /// never retarget PGs. Detection and map surgery belong to the heartbeat /
  /// monitor pipeline. Default off: the oracle semantics above.
  void set_detected(bool d) { detected_ = d; }
  /// The monitor's messenger, for kMonPeer-directed link faults.
  void set_monitor(net::Messenger* m) { mon_ = m; }

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
  /// After a CRUSH up/down flip, apply the recovery rule (osd/recovery.h)
  /// to every PG it re-placed: install the new acting sets and recover the
  /// targets asynchronously.
  void retarget_pgs(const osd::MapChange& change);
  void trace_event(std::size_t idx);

  sim::Simulation& sim_;
  cluster::ClusterMap& cmap_;
  std::vector<osd::Osd*> osds_;
  std::vector<dev::SsdModel*> ssds_;
  std::vector<net::Messenger*> endpoints_;
  std::uint64_t seed_;
  FaultPlan plan_;
  Counters counters_;
  bool installed_ = false;
  bool detected_ = false;
  net::Messenger* mon_ = nullptr;
};

}  // namespace afc::fault
