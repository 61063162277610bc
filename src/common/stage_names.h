#pragma once

namespace afc {

/// Canonical names for every instrumented boundary of the op pipeline.
/// This is the ONE table shared by the Fig. 3 bench, the trace::Collector's
/// histograms/JSON, and docs/TRACING.md — all three intern or print these
/// exact strings (via InternPool in the collector), so the stage taxonomy
/// cannot drift between bench output, trace files, and documentation.

/// Fig. 3 write-path boundary deltas, indexed by osd::Stage. Entry 0 is the
/// arrival point (not a delta); entries 1..7 are the per-stage latencies the
/// paper's Figure 3 breaks a 4K write into.
inline constexpr const char* kWriteStageNames[] = {
    "message received (dispatch)",
    "(1) OP_WQ dequeue (queue wait)",
    "(2) submit op to PG backend",
    "(3) journal queued (throttles)",
    "(4) journal write complete",
    "(5) commit to PG backend",
    "(6) replica commits processed",
    "(7) ack sent to client",
};
inline constexpr unsigned kWriteStageCount =
    unsigned(sizeof(kWriteStageNames) / sizeof(kWriteStageNames[0]));

/// Span stages beyond the Fig. 3 boundaries: waits and substrate work that
/// the write-path deltas contain but cannot attribute (which device, which
/// queue). One name per instrumented site; see docs/TRACING.md.
namespace stage {
inline constexpr const char* kClientIo = "client.io";             // submit → completion, client side
inline constexpr const char* kNetWire = "net.wire";               // messenger send → delivery
inline constexpr const char* kNetBatch = "net.batch";             // egress batcher: enqueue → frame flush
inline constexpr const char* kDispatchThrottle = "osd.dispatch.throttle";  // client-message cap wait
inline constexpr const char* kQosQueue = "osd.qos.queue";          // dmClock tenant-queue wait
inline constexpr const char* kPgLockWait = "osd.pg_lock.wait";    // PG lock / pending-queue wait
inline constexpr const char* kJournalThrottle = "osd.journal.throttle";    // fs/journal throttles + reserve
inline constexpr const char* kJournalWrite = "journal.write";     // submit → durable on NVRAM
inline constexpr const char* kReplication = "osd.replication";    // repops sent → all commits seen
inline constexpr const char* kWriteOp = "osd.write_op";           // dispatch → client ack (total)
inline constexpr const char* kReadOp = "osd.read_op";             // dispatch → read reply
inline constexpr const char* kFsApply = "fs.apply";               // filestore transaction apply
inline constexpr const char* kKvWrite = "kv.write";               // omap/KV WAL+memtable write

// Fault-injection & recovery markers (instants unless noted; docs/FAULTS.md).
inline constexpr const char* kFaultInject = "fault.inject";       // a FaultPlan event applied
inline constexpr const char* kNetLinkDrop = "net.link_drop";      // lossy link ate a message
inline constexpr const char* kOsdRepRetry = "osd.rep_retry";      // primary resent repops
inline constexpr const char* kClientRetry = "client.retry";       // client resubmitted an op
inline constexpr const char* kJournalReplay = "journal.replay";   // restart re-applied a record
inline constexpr const char* kScrubRepair = "scrub.repair";       // deep scrub repaired a replica

// Membership markers (detected mode only; docs/FAULTS.md "injected vs detected").
inline constexpr const char* kHeartbeat = "osd.heartbeat";        // a peer crossed the grace period
inline constexpr const char* kMapUpdate = "osd.map_update";       // the monitor published a new epoch

// Erasure-coding markers (docs/EC.md).
inline constexpr const char* kEcShardRead = "osd.ec.shard_read";  // span: shard fetch at a holder
inline constexpr const char* kEcReconstruct = "osd.ec.reconstruct";  // degraded read decoded
inline constexpr const char* kEcRebuild = "osd.ec.shard_rebuilt";    // recovery decoded a shard
inline constexpr const char* kEcParityMismatch = "osd.ec.parity_mismatch";  // scrub stripe check failed
}  // namespace stage

}  // namespace afc
