#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "mon/membership.h"
#include "net/messenger.h"
#include "osd/op.h"
#include "sim/simulation.h"

namespace afc::osd {

class Osd;

/// One OSD daemon's side of membership (MembershipMode::kDetected only: an
/// oracle-mode OSD has no agent, so it sends no heartbeat, draws no RNG and
/// arms no timer).
///
/// On a seeded, jittered interval it pings every CRUSH-adjacent peer — the
/// union of its OSD's PG acting sets — over the same messenger connections
/// the data path uses, so a link fault or blackhole shapes heartbeats
/// exactly like it shapes rep-ops. Per peer it tracks the last reply
/// arrival and an RTT EWMA. A peer silent past `hb_grace` becomes
/// *suspect*: reported to the monitor once per tick until it answers again
/// (re-reporting keeps the report fresh across the monitor's TTL pruning).
/// A peer whose RTT EWMA crosses `laggy_rtt`, or this OSD itself when its
/// oldest in-flight op exceeds `laggy_op_age`, is reported laggy — alive
/// but slow — which flags without evicting. It also beacons the monitor
/// every `beacon_interval`, which is how a partition-healed (never-crashed)
/// daemon gets marked up again.
///
/// It holds the newest map epoch the daemon has *learned* from monitor
/// deltas — distinct from the shared ClusterMap's epoch, the ground truth a
/// partitioned daemon has not seen yet — and the OSD asks it at each fence
/// point. Heartbeat state dies with the daemon (on_crash) and restarts
/// with fresh baselines after journal replay (announce_boot).
class MembershipAgent {
 public:
  /// Reports, beacons and map requests travel over `mon_conn` (deltas
  /// arrive on the monitor's own connection); `roster[i]` is the OSD with
  /// id i, for delta-driven recovery: the membership plane's one roster,
  /// shared by every agent, so OSDs added later are recovery targets too.
  /// The agent starts out knowing the map's current epoch.
  MembershipAgent(Osd& osd, const mon::MembershipConfig& cfg, net::Connection* mon_conn,
                  const std::vector<Osd*>& roster, std::uint64_t seed);

  /// Baseline every peer at "seen now" and schedule the first tick.
  void start();
  /// Cancel the pending tick (shutdown).
  void stop();
  void on_crash();
  /// Post-replay boot: restart heartbeats and send the boot beacon (the
  /// detected-mode replacement for the injector's oracle mark-up).
  void announce_boot();

  /// A heartbeat ping, ping reply or monitor map delta arrived.
  void on_message(const net::Message& m);

  // --- fence points --------------------------------------------------------
  /// Client dispatch: false when the op was routed with a stale map and has
  /// been rejected (before any throttle or ledger admission).
  bool admit_client_op(const ClientIoMsg& msg, net::Connection* conn);
  /// Replica side: true when `rep` was prepared under an older map and has
  /// been rejected before journaling.
  bool fences_rep_op(const RepOpMsg& rep, net::Connection* conn);
  /// Primary side: a replica fenced one of `op`'s sub-ops.
  void on_rep_fenced(OpCtx& op, const RepReplyMsg& reply);
  /// Replication watchdog: may it abandon `waiting` and ack degraded?
  bool may_abandon(const std::vector<OpCtx::SubOp>& waiting) const;

  std::uint64_t known_epoch() const { return known_epoch_; }

 private:
  void tick();
  void schedule_next();
  /// Re-derive the peer set from the OSD's PGs; newcomers baseline at now.
  void refresh_peers();
  void on_ping_reply(std::uint32_t from, Time echoed_sent_at);
  /// Send a failure (or laggy) report about `target` to the monitor.
  void report_failure(std::uint32_t target, bool laggy);
  void send_beacon(bool boot);
  /// Ask the monitor for the current map (once per stuck epoch).
  void request_map();
  /// Adopt a delta's epoch and down set, re-derive the OSD's acting sets
  /// (creating the PGs it just joined), and recover the targets of every
  /// moved PG it is the source of.
  void apply_map_delta(const MapDeltaMsg& delta);

  struct PeerHb {
    Time last_seen = 0;      // last reply arrival (baselined at start)
    double rtt_ewma_ns = 0;  // 0 until the first sample
    bool suspected = false;
  };

  sim::Simulation& sim_;
  Osd& osd_;
  mon::MembershipConfig cfg_;
  net::Connection* mon_conn_;  // never null
  const std::vector<Osd*>& roster_;
  Rng rng_;
  std::vector<std::uint32_t> peers_;       // ascending CRUSH-adjacent ids
  std::map<std::uint32_t, PeerHb> state_;  // ordered: the tick iterates it
  Time next_beacon_at_ = 0;
  sim::TimerToken tick_timer_;
  bool armed_ = false;
  bool running_ = false;
  std::uint64_t known_epoch_;
  std::uint64_t requested_epoch_ = 0;  // map-request dedup per stuck epoch
  std::vector<bool> known_down_;       // from the last applied delta
};

}  // namespace afc::osd
