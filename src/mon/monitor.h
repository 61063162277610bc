#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/map.h"
#include "common/stats.h"
#include "common/types.h"
#include "mon/membership.h"
#include "net/messenger.h"
#include "sim/simulation.h"

namespace afc::mon {

/// The cluster monitor (a tiny Paxos-less stand-in for Ceph's mon quorum):
/// the single authority over the membership portion of the cluster map.
/// It never observes OSDs directly — everything it knows arrives as
/// messages over its own (lossy, partitionable) connections:
///
///   * failure reports — an OSD marks a peer down only after
///     `min_reporters` *distinct* OSDs have reported it within
///     `report_ttl` (one flaky link cannot evict a healthy daemon);
///   * flap hysteresis — each mark-down of the same OSD within
///     `flap_window` doubles the quiet period required before the next
///     one, and an OSD continuously down for `down_out_interval` is
///     marked *out* (only then does placement change and data move);
///   * beacons — live OSDs beacon periodically, so a partition-healed
///     daemon is marked up again without restarting; a post-replay boot
///     beacon does the same for restarts;
///   * laggy flags — gray failures: a self-report (op-age watermark) or a
///     reporter quorum (heartbeat RTT watermark) flags an OSD laggy
///     without marking it down; flags expire unless refreshed.
///
/// Every decision bumps the shared map epoch and publishes a MapDeltaMsg
/// to all subscribers over real connections — a partitioned subscriber
/// simply learns late, and epoch fencing (osd/client side) keeps its stale
/// ops from doing harm in the meantime.
class Monitor : public net::Receiver {
 public:
  Monitor(sim::Simulation& sim, cluster::ClusterMap& cmap, const MembershipConfig& cfg);
  ~Monitor() override;

  /// Register the mon -> osd publish connection (call once per OSD, in id
  /// order — publish order is part of the determinism contract).
  void add_osd_subscriber(std::uint32_t osd, net::Connection* conn);
  /// Register a mon -> client publish connection (call in client order).
  void add_client_subscriber(net::Connection* conn);
  /// Ground-truth probe for the false-positive counter: returns true if the
  /// OSD's daemon is actually dead or its links are faulted. A mark-down of
  /// an OSD the probe calls healthy counts in `mon.false_downs`.
  void set_liveness_probe(std::function<bool(std::uint32_t)> probe) {
    liveness_probe_ = std::move(probe);
  }

  sim::CoTask<void> on_message(net::Message m) override;

  /// Report-handling core, public so tests can drive arbitration without a
  /// network: quorum counting, TTL pruning, hysteresis, laggy flags.
  void handle_report(std::uint32_t reporter, std::uint32_t target, bool laggy);
  /// Beacon core (mark-up path), public for tests.
  void handle_beacon(std::uint32_t osd, bool boot);

  /// Send the current map to every subscriber without bumping the epoch:
  /// an operator's map change (decommission, expansion) bumped it already.
  void announce();

  /// One monitor decision, for bench/test assertions on detection latency.
  struct Event {
    std::uint32_t osd = 0;
    Time at = 0;
  };
  const std::vector<Event>& markdowns() const { return markdowns_; }
  const std::vector<Event>& markups() const { return markups_; }
  const std::vector<Event>& markouts() const { return markouts_; }

  bool is_down(std::uint32_t osd) const { return flagged(osd, &OsdState::down); }
  bool is_out(std::uint32_t osd) const { return flagged(osd, &OsdState::out); }
  bool is_laggy(std::uint32_t osd) const { return flagged(osd, &OsdState::laggy); }
  /// Down/out/laggy OSD ids in ascending order (health reporting, deltas).
  std::vector<std::uint32_t> down_osds() const { return flagged(&OsdState::down); }
  std::vector<std::uint32_t> out_osds() const { return flagged(&OsdState::out); }
  std::vector<std::uint32_t> laggy_osds() const { return flagged(&OsdState::laggy); }

  const Counters& counters() const { return counters_; }

  /// Cancel every pending timer (down-out, laggy expiry) for shutdown.
  void close();

 private:
  struct OsdState {
    bool down = false;
    bool out = false;
    bool laggy = false;
    Time laggy_refreshed = 0;
    std::vector<Time> markdown_history;  // within flap_window, for backoff
    sim::TimerToken down_out_timer;
    bool down_out_armed = false;
    sim::TimerToken laggy_timer;
    bool laggy_armed = false;
  };
  struct Report {
    std::uint32_t reporter = 0;
    Time at = 0;
  };

  bool flagged(std::uint32_t osd, bool OsdState::*flag) const {
    return osd < state_.size() && state_[osd].*flag;
  }
  std::vector<std::uint32_t> flagged(bool OsdState::*flag) const;
  void mark_down(std::uint32_t osd);
  void mark_up(std::uint32_t osd);
  void mark_out(std::uint32_t osd);
  void flag_laggy(std::uint32_t osd);
  void laggy_expire(std::uint32_t osd);
  /// Distinct fresh reporters for `target` after TTL pruning.
  unsigned fresh_reporters(std::vector<Report>& reports) const;
  /// Bump the shared epoch and announce() it: the full membership state
  /// to every subscriber (OSDs first, then clients, registration order).
  void publish();
  net::Message make_delta() const;

  sim::Simulation& sim_;
  cluster::ClusterMap& cmap_;
  MembershipConfig cfg_;
  std::vector<OsdState> state_;
  std::vector<std::vector<Report>> dead_reports_;   // indexed by target
  std::vector<std::vector<Report>> laggy_reports_;  // indexed by target
  std::vector<std::pair<std::uint32_t, net::Connection*>> osd_subs_;
  std::vector<net::Connection*> client_subs_;
  std::function<bool(std::uint32_t)> liveness_probe_;
  std::vector<Event> markdowns_;
  std::vector<Event> markups_;
  std::vector<Event> markouts_;
  Counters counters_;
  bool closing_ = false;
};

}  // namespace afc::mon
