#pragma once

#include "common/types.h"

namespace afc::mon {

/// How the cluster learns about failures; picks the membership plane
/// (mon/plane.h).
enum class MembershipMode {
  /// An oracle: a crash instantly marks the OSD down
  /// in CRUSH and bumps the epoch for everyone (the pre-membership
  /// behaviour; byte-identical to runs without the subsystem).
  kOracle,
  /// Self-detected: OSDs heartbeat each other over the (lossy,
  /// partitionable) messenger, report suspects to the monitor, and the
  /// monitor drives the map — quorum mark-down, flap hysteresis, lazy
  /// epoch-fenced map distribution. Faults become purely physical.
  kDetected,
};

/// Knobs for heartbeats, the monitor's failure arbitration and gray-failure
/// (laggy) detection. Everything is inert under MembershipMode::kOracle:
/// no timers are scheduled and no RNG is consumed.
struct MembershipConfig {
  MembershipMode mode = MembershipMode::kOracle;

  // --- OSD-side heartbeats ----------------------------------------------
  /// Mean ping interval to each CRUSH-adjacent peer (seeded ±10% jitter so
  /// the fleet never pings in lockstep).
  Time hb_interval = 20 * kMillisecond;
  /// Silence longer than this marks a peer suspect; the OSD reports it to
  /// the monitor (and keeps re-reporting every interval while suspicion
  /// holds, so report freshness survives the monitor's TTL pruning).
  Time hb_grace = 100 * kMillisecond;

  // --- monitor failure arbitration --------------------------------------
  /// Distinct reporters required before the monitor marks an OSD down
  /// (one flaky link must not take a healthy OSD out of service).
  unsigned min_reporters = 2;
  /// Failure reports older than this are discarded when counting
  /// reporters; suspected peers are re-reported each heartbeat interval.
  Time report_ttl = 400 * kMillisecond;
  /// Flapping hysteresis: after a mark-down, a repeat mark-down of the same
  /// OSD within `flap_window` requires an escalating quiet period
  /// (`markdown_backoff` doubled per recent mark-down).
  Time markdown_backoff = 250 * kMillisecond;
  Time flap_window = 5 * kSecond;
  /// An OSD continuously down this long is marked *out* (removed from
  /// placement): only then does data move. 0 disables mark-out.
  Time down_out_interval = 10 * kSecond;
  /// A live OSD beacons the monitor at this interval so a partition-healed
  /// (never-crashed) daemon gets marked up again without restarting.
  Time beacon_interval = 50 * kMillisecond;

  // --- gray failures (alive but slow) ------------------------------------
  /// Peer-observed heartbeat RTT EWMA above this reports the peer laggy.
  Time laggy_rtt = 2 * kMillisecond;
  /// Self check: an op in flight longer than this (oldest inflight receive
  /// timestamp) makes the OSD report *itself* laggy — catches slow-SSD and
  /// journal-stall gray failures that leave heartbeats crisp.
  Time laggy_op_age = 150 * kMillisecond;
  /// A laggy flag not refreshed by new reports expires after this.
  Time laggy_ttl = 500 * kMillisecond;

  bool detected() const { return mode == MembershipMode::kDetected; }
};

}  // namespace afc::mon
