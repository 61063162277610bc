#pragma once

#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "cluster/map.h"
#include "common/histogram.h"
#include "common/id_map.h"
#include "common/stats.h"
#include "core/profile.h"
#include "fs/filestore.h"
#include "fs/journal.h"
#include "mon/membership.h"
#include "osd/dout.h"
#include "osd/membership_agent.h"
#include "osd/meta_cache.h"
#include "osd/op.h"
#include "osd/pg.h"
#include "osd/pg_backend.h"
#include "osd/qos.h"
#include "osd/throttle_set.h"
#include "store/store_config.h"

namespace afc::osd {

/// Per-OSD tunables: thread counts and CPU costs of each pipeline stage.
/// Costs marked "alloc-heavy" are multiplied by the allocator tax
/// (tcmalloc ≈ 1.55x) unless the profile selects jemalloc.
struct OsdConfig {
  unsigned shards = 5;             // Ceph 0.94 osd_op_num_shards
  unsigned workers_per_shard = 2;  // osd_op_num_threads_per_shard

  Time dispatch_cpu = 45000;          // ns, message decode + PG mapping (alloc-heavy)
  Time prepare_cpu = 110000;           // txn build/encode on the primary (alloc-heavy)
  Time replica_prepare_cpu = 70000;   // (alloc-heavy)
  Time commit_cpu = 15000;             // community finisher work per completion
  Time oplock_cpu = 3000;             // AFCeph inline (OP-lock) completion work
  Time completion_batch_cpu = 4000;   // AFCeph dedicated worker, per event
  Time completion_batch_overhead = 5000;  // per batch
  Time ack_cpu = 25000;               // community ack processing in OP_WQ (alloc-heavy)
  Time fast_ack_cpu = 8000;
  Time read_cpu = 90000;              // read service CPU (alloc-heavy)
  Time repreply_cpu = 12000;

  unsigned log_entries_dispatch = 18;
  unsigned log_entries_replica = 8;
  unsigned log_entries_journal = 5;
  unsigned log_entries_ack = 8;
  unsigned log_entries_read = 18;

  unsigned pg_log_keep = 300;
  unsigned pg_log_trim_every = 64;
  std::uint64_t pg_log_entry_bytes = 180;  // paper: 12~729 bytes
  std::uint64_t pg_info_bytes = 300;
  std::uint64_t attr_oi_bytes = 250;  // "most object metadata under 270 bytes"
  std::uint64_t attr_ss_bytes = 31;

  unsigned completion_batch_max = 64;
  std::uint64_t reply_msg_bytes = 150;
  std::uint64_t repop_header_bytes = 256;

  /// Primary-side replication watchdog: if a replica's commit ack is not
  /// seen within `rep_timeout` ns, resend the subop (up to `rep_retries`
  /// rounds), then give up on the missing peers — ack degraded if at least
  /// `min_size` replicas (pool config) are durable, else fail the op back
  /// to the client with ok=false. 0 disables the watchdog entirely (the
  /// seed behaviour: no timer events are ever scheduled).
  Time rep_timeout = 0;
  unsigned rep_retries = 2;

  /// EC pools only (inert otherwise). Shard-gather reads give a partitioned
  /// (up but unreachable) shard holder this long before falling back to
  /// reconstruction; peers the CRUSH map already marks down are skipped
  /// with no timer at all. CPU costs model the codec's matrix arithmetic.
  Time ec_read_timeout = 10 * kMillisecond;
  Time ec_encode_cpu = 15000;  // ns, k+m GF(256) multiply-accumulate
  Time ec_decode_cpu = 25000;  // ns, adds the k x k matrix inversion

  /// Per-tenant dmClock QoS in front of OP_WQ. Disabled by default: the
  /// scheduler is not constructed and the dispatch path is untouched.
  /// ClusterConfig::qos is the cluster-level (pool) declaration; ClusterSim
  /// plumbs it here for every OSD it builds.
  QosConfig qos;
};

/// One Ceph OSD daemon: messenger dispatch → sharded OP_WQ → PG (lock or
/// pending-queue) → object store (write-ahead ring on NVRAM, data on SSD,
/// LSM omap), with splay replication to peer OSDs. Every mechanism of the paper exists in
/// both its community and its AFCeph form, selected by core::Profile:
///
///   PG path        : blocking PG lock  | pending queue (Fig. 5)
///   completions    : single finisher under PG lock | OP-lock + batched
///                    dedicated completion worker (Fig. 6)
///   acks           : re-queued through OP_WQ | fast path
///   logging        : blocking single-writer dout | non-blocking multi-writer
///   transactions   : full op set + RMW metadata reads | light transactions
///   throttles      : HDD defaults | SSD-sized
class Osd : public net::Receiver, private store::ObjectStore::Hooks {
 public:
  Osd(sim::Simulation& sim, net::Node& node, dev::Device& journal_dev,
      dev::Device& data_dev, cluster::ClusterMap& cmap, std::uint32_t id,
      const OsdConfig& cfg, const core::Profile& profile,
      const store::StoreConfig& store_cfg, const kv::Db::Config& kv_cfg,
      const ThrottleSet::Config& throttle_cfg, DebugLog::Config log_cfg,
      const fs::Journal::Config& journal_cfg);
  ~Osd() override;
  Osd(const Osd&) = delete;
  Osd& operator=(const Osd&) = delete;

  std::uint32_t id() const { return id_; }
  net::Messenger& messenger() { return msgr_; }
  const net::Messenger& messenger() const { return msgr_; }
  net::Node& node() { return node_; }

  /// Instantiate a PG this OSD serves (primary or replica); a PG it
  /// already holds is left alone.
  void create_pg(std::uint32_t pgid, std::vector<std::uint32_t> acting);
  /// The PG this OSD holds under `pgid`; nullptr when it holds none.
  Pg* find_pg(std::uint32_t pgid);

  /// Record the connection to a peer OSD (cluster wiring).
  void add_peer(std::uint32_t osd_id, net::Connection* conn);
  /// The connection to peer OSD `osd_id`; nullptr when there is none.
  net::Connection* peer(std::uint32_t osd_id) const {
    return osd_id < peers_.size() ? peers_[osd_id] : nullptr;
  }

  sim::CoTask<void> on_message(net::Message m) override;

  // --- recovery / map changes -------------------------------------------
  /// Update a PG's acting set after a CRUSH map change (creates the PG if
  /// this OSD just joined it).
  void set_pg_acting(std::uint32_t pgid, std::vector<std::uint32_t> acting);
  /// Export one object for recovery at another OSD, charged as a source
  /// read, the wire transfer and one recovery hop.
  sim::CoTask<store::ObjectExport> push_export(const fs::ObjectId& oid);
  /// Install one recovered object (charged as a light apply).
  sim::CoTask<void> recover_object(const fs::ObjectId& oid, store::ObjectExport data);
  /// The daemon died (fault injection): its RAM — the op ledger, the
  /// ordered-ack bookkeeping, gather routes, heartbeat state — is gone.
  /// Journal and filestore state survive on media; coroutines already in
  /// flight keep running as zombies whose output is blackholed.
  void on_crash();
  /// The daemon came back: replay the store's write-ahead ring from the
  /// last applied sequence (CRC-verified, tail-truncated) so locally
  /// durable writes recover without peer traffic. Called before backfill
  /// re-targets the cluster; backfill then covers only what replay could
  /// not. Completes only when every surviving record has re-applied: the
  /// caller must not mark the OSD up (admit client ops or backfill pushes)
  /// while possibly-stale records are still applying.
  sim::CoTask<void> on_restart();

  // --- membership (MembershipMode::kDetected only) ----------------------
  /// Build this daemon's membership agent (it arms no timer until its
  /// start()); only the detected plane (mon/plane.h) calls this, so an
  /// oracle-mode OSD never has one. `roster` must outlive the agent.
  void attach_membership(const mon::MembershipConfig& cfg, net::Connection* mon_conn,
                         const std::vector<Osd*>& roster, std::uint64_t seed);
  /// The membership agent, or nullptr under kOracle.
  MembershipAgent* membership() { return agent_.get(); }

  /// The pool's redundancy scheme, as this OSD runs it.
  PgBackend& pg_backend() { return *backend_; }

  /// Close all internal queues so worker coroutines drain and exit.
  void close();

  // --- instrumentation -------------------------------------------------
  store::ObjectStore& store() { return *store_; }
  /// The store's write-ahead ring (FileStore's journal, FlashStore's WAL).
  fs::Journal& journal() { return *store_->wal(); }
  kv::Db& omap_db() { return omap_; }
  DebugLog& dlog() { return dlog_; }
  ThrottleSet& throttles() { return throttles_; }
  MetaCache& meta_cache() { return meta_cache_; }
  Counters& counters() { return counters_; }
  /// The dmClock scheduler, or nullptr when QoS is disabled.
  QosScheduler* qos() { return qos_.get(); }
  const QosScheduler* qos() const { return qos_.get(); }

  const Histogram& stage_delta(unsigned stage) const { return stage_hist_[stage]; }
  const Histogram& write_total_hist() const { return write_total_; }

  std::uint64_t client_writes() const { return client_writes_; }
  std::uint64_t client_reads() const { return client_reads_; }
  std::uint64_t replica_ops() const { return replica_ops_; }
  std::uint64_t pending_defers() const;
  Time pg_lock_wait_ns() const;
  std::uint64_t pg_lock_contended() const;

 private:
  // --- dispatch ---------------------------------------------------------
  sim::CoTask<void> dispatch_client_op(std::shared_ptr<ClientIoMsg> msg,
                                       net::Connection* conn);
  sim::CoTask<void> dispatch_rep_reply(std::shared_ptr<RepReplyMsg> msg);
  /// Admit a dispatched client op to the ledger (inflight, ordered acks,
  /// trace span — with the dispatch-throttle wait since `throttle_t0`).
  WorkItem open_client_op(std::shared_ptr<ClientIoMsg> msg, net::Connection* conn,
                          Time throttle_t0);
  /// An op resolved: free its message throttles, QoS slot and ledger entry.
  void close_client_op(const ClientIoMsg& msg);
  void shard_push(WorkItem item);
  /// QoS path only: acquire the message throttles a dispatched op skipped
  /// (they are held until resolution, like the seed path), then shard_push.
  sim::CoTask<void> qos_admit(WorkItem item);
  /// An op resolved (ack / read reply / failure): free its QoS window slot.
  void qos_op_done();

  // --- OP_WQ ------------------------------------------------------------
  sim::CoTask<void> worker_loop(unsigned shard);
  /// Resolve a client op for a PG this OSD does not hold as failed.
  void reject_unheld(WorkItem& item);
  sim::CoTask<void> run_item_community(WorkItem item);
  sim::CoTask<void> run_item_pending_queue(WorkItem item);
  sim::CoTask<void> process_item(WorkItem& item);  // inside PG critical section
  /// The one client write: shared prelude, the scheme's shard plan, the
  /// not-in-the-acting-set check, then one sub-op per remote position.
  sim::CoTask<void> process_client_write(WorkItem& item);
  sim::CoTask<void> process_replica_op(WorkItem& item);
  sim::CoTask<void> process_rep_reply_locked(WorkItem& item);  // community
  sim::CoTask<void> process_ack_locked(WorkItem& item);        // community

  void send_read_reply(OpRef& op, bool ok, std::uint64_t data_len,
                       std::optional<std::vector<std::uint8_t>> data);
  /// Reply to a client: `reply` carries the outcome; op id, direction and
  /// wire size come from `msg`.
  void send_io_reply(net::Connection* conn, const ClientIoMsg& msg,
                     std::shared_ptr<IoReplyMsg> reply, trace::Span span);

  // --- metadata ---------------------------------------------------------
  sim::CoTask<ObjectMeta> ensure_object_meta(const fs::ObjectId& oid);

  // --- replication recovery ---------------------------------------------
  void send_rep_op(OpCtx& op, OpCtx::SubOp sub);
  void arm_rep_timer(OpRef& op);
  void disarm_rep_timer(OpCtx& op);
  /// Replication watchdog fired for `op_id`: resend subops to peers still
  /// missing, or — retries exhausted — abandon them and resolve the op
  /// (degraded ack / failure).
  void on_rep_timeout(std::uint64_t op_id);
  /// Resolve an op as failed: reply ok=false, release throttles, account.
  void fail_op(OpRef op);
  /// Replica -> primary commit ack, or (a nonzero `fence_epoch`) an
  /// epoch-fence rejection telling the primary that epoch.
  void send_rep_reply(net::Connection* conn, const RepOpMsg& rep, std::uint64_t fence_epoch);

  // --- the write transaction --------------------------------------------
  /// The PG-log write transaction for one object write. The primary also
  /// records the snapset and trims the PG log; a replica only mirrors.
  fs::Transaction build_write_txn(Pg& pg, const fs::ObjectId& oid, std::uint64_t off,
                                  const Payload& data, std::uint64_t version, bool primary);
  /// The one admission step (still inside the PG critical section — the
  /// paper's Fig. 3 step (3)), then the detached commit. `item` is the
  /// client op (primary, replicated or EC shard) or the replica sub-op.
  sim::CoTask<void> submit_txn(const WorkItem& item, fs::Transaction txn);
  sim::CoTask<void> commit_txn(WorkItem item, fs::Transaction txn, std::uint64_t bytes);
  // store::ObjectStore::Hooks
  sim::CoTask<void> on_commit(const OpRef& op) override;
  sim::CoTask<void> on_applied(const OpRef& op) override;

  // --- completions ---------------------------------------------------------
  struct CompletionEvent {
    enum Kind {
      kCommit,         // primary local journal commit
      kApplied,        // filestore apply finished
      kRepCommit,      // replica commit ack arrived at the primary
      kRepCommitSend,  // replica side: send the commit ack to the primary
    } kind;
    OpRef op;
    std::uint32_t pg;
    std::shared_ptr<RepOpMsg> rep;
    net::Connection* conn;
  };
  sim::CoTask<void> finisher_loop();           // community: one, PG lock per event
  sim::CoTask<void> completion_worker_loop();  // AFCeph: batched, no PG lock
  void handle_commit_recorded(OpRef& op);      // common bookkeeping
  void fast_ack_now(OpRef op);

  // --- ack delivery -------------------------------------------------------
  // Ordered-ack delivery (per client): op ids outstanding and acks held
  // back until their predecessors complete.
  struct ClientAckState {
    std::set<std::uint64_t> outstanding;
    std::map<std::uint64_t, OpRef> held;
  };
  void deliver_ack(OpRef op);
  /// Send `st`'s held acks, lowest op id first, while each is the oldest
  /// outstanding op.
  void send_ready_acks(ClientAckState& st);
  void send_reply_message(OpRef& op);

  /// Occupy one node core for `cost`, scaled by the profile's allocator
  /// multiplier when `alloc_heavy`.
  sim::CpuPool::Consume charge_cpu(Time cost, bool alloc_heavy) {
    const double mult = alloc_heavy ? profile_.alloc_cpu_multiplier() : 1.0;
    return node_.cpu().consume(Time(double(cost) * mult));
  }

  sim::Simulation& sim_;
  net::Node& node_;
  cluster::ClusterMap& cmap_;
  std::uint32_t id_;
  OsdConfig cfg_;
  core::Profile profile_;
  Counters counters_;

  net::Messenger msgr_;
  ThrottleSet throttles_;
  DebugLog dlog_;
  kv::Db omap_;
  std::unique_ptr<store::ObjectStore> store_;
  MetaCache meta_cache_;

  std::unique_ptr<QosScheduler> qos_;  // null unless cfg_.qos.enabled
  std::unique_ptr<PgBackend> backend_;
  std::unique_ptr<MembershipAgent> agent_;  // null under kOracle
  IdMap<std::unique_ptr<Pg>> pgs_;       // sparse: ~pg_num * size / osds of pg_num ids
  std::vector<net::Connection*> peers_;  // by OSD id; nullptr: no connection
  std::vector<std::unique_ptr<sim::Channel<WorkItem>>> shard_queues_;
  sim::Channel<CompletionEvent> finisher_q_;
  sim::Channel<CompletionEvent> completion_q_;

  IdMap<OpRef> inflight_;  // by op id

  std::unordered_map<std::uint64_t, ClientAckState> ack_state_;  // by client id

  Histogram stage_hist_[kStageCount];
  Histogram write_total_;
  std::uint64_t client_writes_ = 0;
  std::uint64_t client_reads_ = 0;
  std::uint64_t replica_ops_ = 0;

  // The redundancy scheme and the detected-mode membership agent are parts
  // of this daemon kept in their own files.
  friend class PgBackend;
  friend class ReplicatedBackend;
  friend class EcBackend;
  friend class MembershipAgent;
};

}  // namespace afc::osd
