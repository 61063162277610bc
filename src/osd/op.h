#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/payload.h"
#include "common/stage_names.h"
#include "fs/transaction.h"
#include "net/messenger.h"

namespace afc::osd {

/// Wire message types between clients and OSDs / between OSDs.
enum MsgType : int {
  kClientWrite = 1,
  kClientRead = 2,
  kRepOp = 3,       // primary -> replica
  kRepReply = 4,    // replica -> primary (journal commit ack)
  kWriteReply = 5,  // primary -> client
  kReadReply = 6,
  kShardRead = 7,       // EC primary -> shard holder (gather for a read)
  kShardReadReply = 8,  // shard holder -> EC primary
  // --- membership traffic (only under MembershipMode::kDetected) ---------
  kHbPing = 9,           // OSD -> CRUSH-adjacent peer
  kHbPingReply = 10,     // peer -> OSD (echoes the ping timestamp)
  kFailureReport = 11,   // OSD -> monitor (dead suspicion or laggy flag)
  kMonBeacon = 12,       // OSD -> monitor (liveness / boot announcement)
  kMapDelta = 13,        // monitor -> subscribers (epoch + membership state)
  kMapRequest = 14,      // anyone -> monitor (fetch the current map)
};

/// A client I/O request (MOSDOp).
struct ClientIoMsg : net::MsgBody {
  std::uint64_t op_id = 0;
  std::uint64_t client_id = 0;
  std::uint32_t tenant = 0;  // QoS tenant class (0 = default profile)
  std::uint32_t pg = 0;
  fs::ObjectId oid;
  std::uint64_t offset = 0;
  std::uint64_t read_len = 0;
  Payload data;  // write payload
  bool is_write = false;
  bool want_data = false;  // reads: materialize bytes (verification)
  Time issued_at = 0;
  /// Sender's map epoch (detected membership only; 0 = oracle mode, never
  /// checked). A receiver with a newer map fences the op instead of
  /// serving it — see IoReplyMsg::fenced.
  std::uint64_t epoch = 0;
};

/// Replication sub-op (MOSDRepOp) carrying the transaction payload.
struct RepOpMsg : net::MsgBody {
  std::uint64_t op_id = 0;
  std::uint32_t pg = 0;
  fs::ObjectId oid;
  std::uint64_t offset = 0;
  Payload data;
  std::uint64_t version = 0;
  std::uint64_t epoch = 0;  // primary's map epoch (detected membership only)
};

/// Replica journal-commit ack (MOSDRepOpReply). `from_osd` lets the primary
/// credit each replica once even when lossy-link retransmission or repop
/// resends duplicate the ack.
struct RepReplyMsg : net::MsgBody {
  std::uint64_t op_id = 0;
  std::uint32_t pg = 0;
  std::uint32_t from_osd = 0;
  /// The replica's map is newer than the rep-op's epoch: the sub-op was
  /// rejected, `map_epoch` tells the stale primary what to catch up to.
  bool fenced = false;
  std::uint64_t map_epoch = 0;
};

/// EC shard fetch (primary gathering chunks for a striped read). The
/// primary pre-computes the shard object id and shard-space extent; the
/// holder is a plain object read with no EC awareness.
struct ShardReadMsg : net::MsgBody {
  std::uint64_t rid = 0;  // gather id, unique per primary
  std::uint32_t pg = 0;
  fs::ObjectId oid;
  std::uint64_t offset = 0;  // shard-space
  std::uint64_t len = 0;
  bool want_data = false;
};

struct ShardReadReplyMsg : net::MsgBody {
  std::uint64_t rid = 0;
  unsigned shard = 0;  // shard position this chunk belongs to
  bool ok = true;
  std::uint64_t data_len = 0;
  std::optional<std::vector<std::uint8_t>> data;  // when want_data
};

/// Reply to the client.
struct IoReplyMsg : net::MsgBody {
  std::uint64_t op_id = 0;
  bool is_write = false;
  bool ok = true;
  std::uint64_t data_len = 0;
  std::optional<std::vector<std::uint8_t>> data;  // reads with want_data
  Time issued_at = 0;
  /// Op rejected because its epoch was stale (detected membership only);
  /// `map_epoch` is the rejecting OSD's epoch. The client re-resolves the
  /// primary and resubmits immediately — the op was never admitted.
  bool fenced = false;
  std::uint64_t map_epoch = 0;
};

// --- membership wire messages (MembershipMode::kDetected only) -----------

/// Heartbeat ping / reply. The reply echoes `sent_at` so the sender can
/// compute an RTT without per-ping bookkeeping surviving a restart.
struct HbPingMsg : net::MsgBody {
  std::uint32_t from_osd = 0;
  Time sent_at = 0;
};

struct HbPingReplyMsg : net::MsgBody {
  std::uint32_t from_osd = 0;
  Time sent_at = 0;  // echoed from the ping
};

/// OSD -> monitor: `target` has been silent past the grace period
/// (`laggy == false`), or is alive but slow (`laggy == true`). Reporters
/// re-send while the condition holds; the monitor prunes by report age.
struct FailureReportMsg : net::MsgBody {
  std::uint32_t reporter = 0;
  std::uint32_t target = 0;
  bool laggy = false;
};

/// OSD -> monitor liveness beacon. `boot` marks the first beacon after a
/// restart's journal replay finished (Ceph's MOSDBoot vs MOSDBeacon).
struct MonBeaconMsg : net::MsgBody {
  std::uint32_t osd = 0;
  bool boot = false;
};

/// Monitor -> subscriber map update. Carries the epoch plus the *full*
/// down/out/laggy state — self-healing against dropped deltas: applying
/// the newest delta always reconstructs the subscriber's view.
struct MapDeltaMsg : net::MsgBody {
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> down;
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> laggy;
};

/// Anyone -> monitor: send me the current map (share-on-contact catch-up
/// after a fence or a missed delta).
struct MapRequestMsg : net::MsgBody {};

/// Fig. 3 stage indices for the write-path latency breakdown.
enum Stage : unsigned {
  kStRecv = 0,       // message arrived at the OSD dispatcher
  kStDequeued = 1,   // picked up by an OP_WQ worker
  kStSubmitted = 2,  // repops sent + transaction prepared ("submit op to PG backend")
  kStJournalQ = 3,   // throttles passed, journal write queued
  kStJournaled = 4,  // journal write durable
  kStCommitEvt = 5,  // journal completion processed at PG backend
  kStRepAcked = 6,   // all replica commits processed
  kStAcked = 7,      // client ack sent
  kStageCount = 8,
};

// The shared stage-name table (common/stage_names.h) labels these deltas in
// bench output and trace JSON; the two must stay in lockstep.
static_assert(kStageCount == kWriteStageCount,
              "osd::Stage and afc::kWriteStageNames must describe the same pipeline");

/// Primary-side state for one in-flight client op.
struct OpCtx {
  std::shared_ptr<ClientIoMsg> msg;
  net::Connection* reply_conn = nullptr;
  unsigned commits_needed = 0;
  unsigned commits_seen = 0;
  bool acked = false;
  trace::Span span;  // set at dispatch only while tracing; invalid otherwise
  std::array<Time, kStageCount> ts{};

  // --- replication-recovery state (inert unless OsdConfig::rep_timeout) ---
  std::uint64_t version = 0;     // PG version of this write (repop resends)
  unsigned commits_planned = 0;  // commits_needed at submit (degraded-ack accounting)
  unsigned min_commits = 0;      // durable replicas required before an ack
  unsigned rep_retries = 0;      // repop resend rounds so far
  /// A remote position's sub-op: the peer holding position `pos`.
  struct SubOp {
    std::uint32_t peer = 0;
    unsigned pos = 0;
  };
  std::vector<SubOp> waiting_peers;            // sub-ops not yet committed
  std::vector<std::uint32_t> peers_committed;  // replicas credited (ack dedup)
  sim::TimerToken rep_timer;  // replication watchdog (cancelled at ack)
  bool rep_timer_armed = false;
  bool failed = false;  // resolved with ok=false after bounded retries

  // --- the write's per-position shard plan --------------------------------
  /// One position's share of a write: the object, offset and bytes its
  /// holder journals.
  struct Shard {
    fs::ObjectId oid;
    std::uint64_t offset = 0;  // shard-space for an EC shard
    Payload data;
  };
  struct ShardRef {
    const fs::ObjectId& oid;
    std::uint64_t offset;
    const Payload& data;
  };
  /// EC writes: the shard object, shard-space offset and stripe chunk of
  /// every position. Empty for a replicated write, whose every position
  /// journals the client's own (oid, offset, data).
  std::vector<Shard> stripe;
  /// Position `pos`'s share: the one rule the local transaction, every
  /// sub-op and every watchdog resend are built from.
  ShardRef shard(unsigned pos) const {
    if (stripe.empty()) return {msg->oid, msg->offset, msg->data};
    return {stripe[pos].oid, stripe[pos].offset, stripe[pos].data};
  }

  void stamp(Stage s, Time now) { ts[s] = now; }
};

using OpRef = std::shared_ptr<OpCtx>;

/// Items flowing through the sharded OP_WQ. Everything community Ceph
/// funnels through the PG queue is an item kind here; AFCeph diverts
/// completion/ack kinds off this path entirely.
struct WorkItem {
  enum Kind {
    kClientOp,
    kReplicaOp,
    kRepReplyEvent,  // community: replica ack processed under PG lock
    kAckEvent,       // community: client ack goes back through the queue
  };
  Kind kind = kClientOp;
  std::uint32_t pg = 0;
  OpRef op;                             // kClientOp / kRepReplyEvent / kAckEvent
  std::shared_ptr<RepOpMsg> rep;        // kReplicaOp
  net::Connection* conn = nullptr;      // reply path for kReplicaOp
  Time trace_parked = 0;  // when the item entered a PG pending queue (tracing)
};

}  // namespace afc::osd
