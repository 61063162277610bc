#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace afc::fault {

/// The nine injectable fault kinds. Each is something the paper's testbed
/// can suffer in production: daemon death, flash wear-out outliers, flaky
/// or partitioned cluster links, journal-device hiccups, and the media
/// corruption classes (bit rot, torn writes) the integrity layer exists
/// to catch.
enum class FaultKind {
  kOsdCrash,       // daemon dies: blackholed + marked down (CRUSH re-targets)
  kOsdRestart,     // daemon returns: un-blackholed, marked up, backfilled
  kSsdSlow,        // data-SSD service times x `factor` for `duration`
  kLinkDrop,       // links touching (osd, peer) drop each packet w.p. `p`
  kLinkDelay,      // links touching (osd, peer) gain `added_ns` propagation
  kLinkPartition,  // links touching (osd, peer) deliver nothing
  kJournalStall,   // the store's write-ahead ring freezes for `duration`
  kBitFlip,        // flip a byte: data extent (`media`=0), write-ahead ring
                   // record (1), or an EC parity shard's extent (2)
  kTornWrite,      // next ring batch persists only a prefix, then the daemon dies
};

const char* kind_name(FaultKind k);

/// One scheduled fault. Which fields matter depends on `kind`; unused
/// fields keep their defaults. `duration == 0` on a link/SSD fault means
/// it never auto-clears.
struct FaultEvent {
  Time at = 0;
  FaultKind kind = FaultKind::kOsdCrash;
  std::uint32_t osd = 0;   // target OSD id
  std::uint32_t peer = 0;  // link faults: the other endpoint (kAllPeers = every link)
  double factor = 1.0;     // kSsdSlow: latency multiplier
  double p = 0.0;          // kLinkDrop: per-message drop probability
  Time added_ns = 0;       // kLinkDelay: extra propagation latency
  Time duration = 0;       // kSsdSlow / kLink* / kJournalStall: auto-clear after this
  std::uint32_t media = 0; // kBitFlip: 0 = data extent, 1 = ring record, 2 = parity
};

inline constexpr std::uint32_t kAllPeers = ~std::uint32_t(0);
/// Link-fault peer value targeting the OSD<->monitor link (detected-mode
/// membership): cuts only the management path, leaving the data path up —
/// the OSD keeps serving but can neither report failures nor learn maps.
inline constexpr std::uint32_t kMonPeer = ~std::uint32_t(0) - 1;

/// A deterministic, seed-stable schedule of faults on the simulated
/// timeline. Build one with the fluent helpers (times are absolute sim-time
/// ns) or generate a randomized-but-reproducible plan for soak testing.
/// The plan itself is inert data; fault::FaultInjector arms it.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  FaultPlan& crash(Time at, std::uint32_t osd);
  FaultPlan& restart(Time at, std::uint32_t osd);
  /// crash at `at`, restart `downtime` later.
  FaultPlan& crash_restart(Time at, std::uint32_t osd, Time downtime);
  FaultPlan& ssd_slow(Time at, std::uint32_t osd, double factor, Time duration);
  FaultPlan& link_drop(Time at, std::uint32_t osd, std::uint32_t peer, double p,
                       Time duration);
  FaultPlan& link_delay(Time at, std::uint32_t osd, std::uint32_t peer, Time added_ns,
                        Time duration);
  FaultPlan& link_partition(Time at, std::uint32_t osd, std::uint32_t peer, Time duration);
  FaultPlan& journal_stall(Time at, std::uint32_t osd, Time duration);
  /// Flip one byte of a seeded-random data extent on `osd` at `at`.
  FaultPlan& bit_flip_data(Time at, std::uint32_t osd);
  /// Flip one byte of a seeded-random retained record in the store's
  /// write-ahead ring on `osd`.
  FaultPlan& bit_flip_journal(Time at, std::uint32_t osd);
  /// Flip one byte of a seeded-random EC *parity* shard on `osd` (shard
  /// index >= k). No-op on replicated pools; exercises the scrub's
  /// parity-consistency check and repair-by-recompute.
  FaultPlan& bit_flip_parity(Time at, std::uint32_t osd);
  /// Tear the write-ahead ring batch queued at `at` (prefix persists) and
  /// crash the daemon; pair with restart() to exercise replay.
  FaultPlan& torn_write(Time at, std::uint32_t osd);
  /// torn_write at `at`, restart `downtime` later.
  FaultPlan& torn_write_restart(Time at, std::uint32_t osd, Time downtime);

  /// Randomized soak plan: `n_events` faults drawn uniformly over kinds and
  /// targets in (warmup, horizon), every crash paired with a restart so the
  /// cluster always heals. Same (seed, horizon, n_events, osd_count) →
  /// identical plan, run after run.
  static FaultPlan random(std::uint64_t seed, Time warmup, Time horizon, unsigned n_events,
                          std::uint32_t osd_count);

  /// Human-readable schedule, one line per event (bench logs).
  std::string describe() const;
};

}  // namespace afc::fault
