#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mon/monitor.h"
#include "osd/recovery.h"

namespace afc::client {
class VmClient;
}

namespace afc::mon {

/// How the cluster learns about membership changes: one plane per
/// MembershipMode, built by make(), the only place that asks the mode.
/// ClusterSim attaches every OSD and client through it, the fault injector
/// hands it every crash and restart, and ClusterSim's decommission and
/// expansion rebalance through it.
///   * Oracle: a crash marks the OSD down in CRUSH, bumps the epoch and
///     re-homes its PGs at once; a restart reverses that. Builds nothing,
///     schedules nothing.
///   * Detected: a monitor node arbitrates. Crashes are physical only and a
///     restart sends the boot beacon; every OSD's MembershipAgent heartbeats
///     and reports, and every map change reaches agents and clients as an
///     epoch-fenced delta.
class MembershipPlane {
 public:
  static std::unique_ptr<MembershipPlane> make(sim::Simulation& sim, cluster::ClusterMap& cmap,
                                               const MembershipConfig& cfg, std::uint64_t seed);
  virtual ~MembershipPlane() = default;

  /// Every attached OSD, indexed by id: one vector that agents and
  /// recoveries share by reference, so an OSD attached later is a
  /// recovery target for all of them.
  const std::vector<osd::Osd*>& roster() const { return roster_; }

  /// Attach the next OSD (id order) once its data-path links are wired,
  /// with the link profile for its monitor connection. Then every client
  /// (client order), then start() the new agents in id order.
  virtual void attach_osd(osd::Osd& o, const net::Connection::Config&) { roster_.push_back(&o); }
  virtual void attach_client(client::VmClient&, const net::Connection::Config&) {}
  virtual void start() {}

  /// Is `osd` dead as far as faults go? (A crash of a down OSD and a
  /// restart of an up one are no-ops.)
  virtual bool down(std::uint32_t osd) const = 0;
  /// The daemon died (messenger blackholed, RAM dropped), or replayed its
  /// journal and is reachable again. Both complete without suspending and
  /// return the recoveries they launched.
  virtual sim::CoTask<std::uint64_t> on_crash(std::uint32_t osd) = 0;
  virtual sim::CoTask<std::uint64_t> on_restart(std::uint32_t osd) = 0;

  /// CRUSH was just changed by hand; `change` snapshotted the map before.
  /// Bump the epoch, recover every re-placed PG (one target at a time),
  /// then announce the change. Returns the objects moved. Quiesce client
  /// traffic first.
  sim::CoTask<std::uint64_t> rebalance(const osd::MapChange& change);

  /// The monitor and its messenger, or nullptr under the oracle.
  virtual Monitor* monitor() { return nullptr; }
  virtual net::Messenger* messenger() { return nullptr; }

 protected:
  explicit MembershipPlane(cluster::ClusterMap& cmap) : cmap_(cmap) {}
  virtual void announce(const osd::MapChange&) {}

  cluster::ClusterMap& cmap_;
  std::vector<osd::Osd*> roster_;
};

}  // namespace afc::mon
