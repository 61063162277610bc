#include "osd/osd.h"

#include <algorithm>

namespace afc::osd {

namespace {

store::StoreConfig with_profile(store::StoreConfig cfg, const core::Profile& p) {
  cfg.file.cpu_multiplier = p.alloc_cpu_multiplier();
  cfg.flash.cpu_multiplier = p.alloc_cpu_multiplier();
  return cfg;
}

kv::Db::Config kv_with_profile(kv::Db::Config cfg, const core::Profile& p) {
  cfg.cpu_multiplier = p.alloc_cpu_multiplier();
  return cfg;
}

DebugLog::Config log_with_profile(DebugLog::Config cfg, const core::Profile& p) {
  cfg.enabled = p.logging_enabled;
  cfg.nonblocking = p.nonblocking_logging;
  cfg.writer_threads = p.log_writer_threads;
  cfg.log_cache = p.log_cache;
  cfg.cpu_multiplier = p.alloc_cpu_multiplier();
  return cfg;
}

MetaCache::Config meta_cache_cfg(const core::Profile& p) {
  MetaCache::Config c;
  c.writethrough_authoritative = p.writethrough_meta_cache;
  // AFCeph §3.4: size the cache for the full working set ("10 TB needs
  // 2.5 GB"); community Ceph keeps a bounded read-through cache.
  c.capacity = p.writethrough_meta_cache ? std::size_t(4) << 20 : 8192;
  return c;
}

/// Trace identity of a queued work item: client ops carry their span on the
/// OpCtx; replica ops are attributed to the same op id on this OSD's track.
trace::Span item_span(const WorkItem& item, std::uint32_t osd_id) {
  if (item.op != nullptr) return item.op->span;
  if (item.rep != nullptr) return trace::Span{item.rep->op_id, trace::osd_track(osd_id)};
  return {};
}

}  // namespace

Osd::Osd(sim::Simulation& sim, net::Node& node, dev::Device& journal_dev,
         dev::Device& data_dev, cluster::ClusterMap& cmap, std::uint32_t id,
         const OsdConfig& cfg, const core::Profile& profile,
         const store::StoreConfig& store_cfg, const kv::Db::Config& kv_cfg,
         const ThrottleSet::Config& throttle_cfg, DebugLog::Config log_cfg,
         const fs::Journal::Config& journal_cfg)
    : sim_(sim),
      node_(node),
      cmap_(cmap),
      id_(id),
      cfg_(cfg),
      profile_(profile),
      msgr_(sim, node, *this, "osd." + std::to_string(id)),
      throttles_(sim, throttle_cfg),
      dlog_(sim, node.cpu(), log_with_profile(log_cfg, profile)),
      omap_(sim, data_dev, kv_with_profile(kv_cfg, profile), &node.cpu()),
      store_(store::make_store(
          sim, node.cpu(), journal_dev, data_dev, omap_, with_profile(store_cfg, profile),
          journal_cfg, *this,
          {throttles_.filestore_ops, throttles_.filestore_bytes, throttles_.journal_ops},
          &counters_)),
      meta_cache_(meta_cache_cfg(profile)),
      finisher_q_(sim),
      completion_q_(sim) {
  shard_queues_.reserve(cfg_.shards);
  for (unsigned s = 0; s < cfg_.shards; s++) {
    shard_queues_.push_back(std::make_unique<sim::Channel<WorkItem>>(sim));
    for (unsigned w = 0; w < cfg_.workers_per_shard; w++) sim::spawn(worker_loop(s));
  }
  if (profile_.dedicated_completion) {
    sim::spawn(completion_worker_loop());
  } else {
    sim::spawn(finisher_loop());
  }
  backend_ = PgBackend::make(*this);
  if (cfg_.qos.enabled) {
    qos_ = std::make_unique<QosScheduler>(
        sim_, cfg_.qos, [this](WorkItem item, Time enqueued_at) {
          if (auto* tr = trace::Collector::active();
              tr != nullptr && item.op->span.valid() && sim_.now() > enqueued_at) {
            tr->complete(item.op->span, tr->stage_id(stage::kQosQueue), enqueued_at,
                         sim_.now());
          }
          sim::spawn(qos_admit(std::move(item)));
        });
  }
}

Osd::~Osd() = default;

void Osd::create_pg(std::uint32_t pgid, std::vector<std::uint32_t> acting) {
  pgs_.emplace(pgid, std::make_unique<Pg>(sim_, pgid, std::move(acting)));
}

Pg* Osd::find_pg(std::uint32_t pgid) {
  std::unique_ptr<Pg>* pg = pgs_.find(pgid);
  return pg == nullptr ? nullptr : pg->get();
}

void Osd::add_peer(std::uint32_t osd_id, net::Connection* conn) {
  if (osd_id >= peers_.size()) peers_.resize(osd_id + 1, nullptr);
  peers_[osd_id] = conn;
}

void Osd::shard_push(WorkItem item) {
  const unsigned shard = item.pg % cfg_.shards;
  shard_queues_[shard]->try_push(std::move(item));  // PG queues are unbounded
}

// ---------------------------------------------------------------------------
// Dispatch (messenger context)
// ---------------------------------------------------------------------------

sim::CoTask<void> Osd::on_message(net::Message m) {
  switch (m.type) {
    case kClientWrite:
    case kClientRead:
      co_await dispatch_client_op(std::static_pointer_cast<ClientIoMsg>(m.body), m.reply_to);
      break;
    case kRepOp: {
      co_await charge_cpu(cfg_.dispatch_cpu / 2, true);
      WorkItem item;
      item.kind = WorkItem::kReplicaOp;
      item.rep = std::static_pointer_cast<RepOpMsg>(m.body);
      item.pg = item.rep->pg;
      item.conn = m.reply_to;
      shard_push(std::move(item));
      break;
    }
    case kRepReply:
      co_await dispatch_rep_reply(std::static_pointer_cast<RepReplyMsg>(m.body));
      break;
    case kShardRead:
    case kShardReadReply:
      co_await backend_->on_message(std::move(m));
      break;
    default:  // heartbeats and map deltas (detected membership only)
      if (agent_ != nullptr) agent_->on_message(m);
  }
}

sim::CoTask<void> Osd::dispatch_client_op(std::shared_ptr<ClientIoMsg> msg,
                                          net::Connection* conn) {
  if (agent_ != nullptr && !agent_->admit_client_op(*msg, conn)) co_return;
  if (qos_ != nullptr) {
    // QoS path: decode and classify in dispatch context, then park the op in
    // its tenant's dmClock queue. The message throttles move downstream
    // (qos_admit) — a flooding tenant's backlog must wait in *its* queue,
    // not exhaust the global message cap and stall every connection.
    co_await charge_cpu(cfg_.dispatch_cpu, true);
    const std::uint64_t bytes = msg->is_write ? msg->data.size() : msg->read_len;
    qos_->enqueue(open_client_op(msg, conn, sim_.now()), msg->tenant, bytes);
    co_return;
  }
  const Time throttle_t0 = sim_.now();
  // Messenger dispatch throttle: suspending here stalls this connection's
  // delivery pipeline (osd_client_message_cap backpressure).
  co_await throttles_.messages.acquire(1);
  co_await throttles_.message_bytes.acquire(msg->data.size() + 150);
  co_await charge_cpu(cfg_.dispatch_cpu, true);
  shard_push(open_client_op(msg, conn, throttle_t0));
}

WorkItem Osd::open_client_op(std::shared_ptr<ClientIoMsg> msg, net::Connection* conn,
                             Time throttle_t0) {
  auto op = std::make_shared<OpCtx>();
  op->msg = msg;
  op->reply_conn = conn;
  op->stamp(kStRecv, sim_.now());
  if (auto* tr = trace::Collector::active()) {
    op->span = trace::Span{msg->op_id, trace::osd_track(id_)};
    if (const Time waited_until = sim_.now(); waited_until > throttle_t0) {
      tr->complete(op->span, tr->stage_id(stage::kDispatchThrottle), throttle_t0, waited_until);
    }
    tr->begin(op->span, tr->stage_id(msg->is_write ? stage::kWriteOp : stage::kReadOp),
              sim_.now());
  }
  inflight_[msg->op_id] = op;
  if (profile_.ordered_acks && msg->is_write) {
    ack_state_[msg->client_id].outstanding.insert(msg->op_id);
  }
  WorkItem item;
  item.kind = WorkItem::kClientOp;
  item.pg = msg->pg;
  item.op = std::move(op);
  return item;
}

void Osd::close_client_op(const ClientIoMsg& msg) {
  throttles_.messages.release(1);
  throttles_.message_bytes.release(msg.data.size() + 150);
  qos_op_done();
  inflight_.erase(msg.op_id);
}

sim::CoTask<void> Osd::qos_admit(WorkItem item) {
  ClientIoMsg& msg = *item.op->msg;
  const Time throttle_t0 = sim_.now();
  co_await throttles_.messages.acquire(1);
  co_await throttles_.message_bytes.acquire(msg.data.size() + 150);
  if (auto* tr = trace::Collector::active();
      tr != nullptr && item.op->span.valid() && sim_.now() > throttle_t0) {
    tr->complete(item.op->span, tr->stage_id(stage::kDispatchThrottle), throttle_t0,
                 sim_.now());
  }
  shard_push(std::move(item));
}

void Osd::qos_op_done() {
  if (qos_ != nullptr) qos_->op_done();
}

sim::CoTask<void> Osd::dispatch_rep_reply(std::shared_ptr<RepReplyMsg> msg) {
  const OpRef* found = inflight_.find(msg->op_id);
  if (found == nullptr) co_return;
  OpRef op = *found;
  if (msg->fenced) {
    // Only a detected-mode replica fences, and then this OSD has an agent.
    agent_->on_rep_fenced(*op, *msg);
    co_return;
  }
  // Credit each replica once: lossy-link retransmission and watchdog repop
  // resends can both duplicate the commit ack.
  if (std::find(op->peers_committed.begin(), op->peers_committed.end(), msg->from_osd) !=
      op->peers_committed.end()) {
    counters_.add("osd.dup_rep_replies");
    co_return;
  }
  op->peers_committed.push_back(msg->from_osd);
  std::erase_if(op->waiting_peers,
                [&](const OpCtx::SubOp& w) { return w.peer == msg->from_osd; });
  if (profile_.fast_ack) {
    // AFCeph: replica commit handled right here, no PG-queue round trip.
    co_await charge_cpu(cfg_.repreply_cpu, false);
    op->commits_seen++;
    op->stamp(kStRepAcked, sim_.now());
    completion_q_.try_push(CompletionEvent{CompletionEvent::kRepCommit, op, msg->pg, {}, nullptr});
    co_return;
  }
  // Community: the commit notification competes with data ops in the OP_WQ.
  WorkItem item;
  item.kind = WorkItem::kRepReplyEvent;
  item.pg = msg->pg;
  item.op = std::move(op);
  shard_push(std::move(item));
}

// ---------------------------------------------------------------------------
// OP_WQ workers
// ---------------------------------------------------------------------------

sim::CoTask<void> Osd::worker_loop(unsigned shard) {
  for (;;) {
    auto item = co_await shard_queues_[shard]->pop();
    if (!item) break;
    if (item->kind == WorkItem::kClientOp) item->op->stamp(kStDequeued, sim_.now());
    if (profile_.pending_queue) {
      co_await run_item_pending_queue(std::move(*item));
    } else {
      co_await run_item_community(std::move(*item));
    }
  }
}

void Osd::reject_unheld(WorkItem& item) {
  // An admitted client op holds its message throttles, ledger entry and
  // ordered-ack slot: resolve it as failed instead of dropping it. Other
  // items for an unheld PG (sub-ops ahead of the PG's install) are dropped.
  if (item.kind != WorkItem::kClientOp) return;
  if (item.op->msg->is_write) {
    fail_op(item.op);
  } else {
    send_read_reply(item.op, false, 0, std::nullopt);
  }
}

sim::CoTask<void> Osd::run_item_community(WorkItem item) {
  Pg* pg = find_pg(item.pg);
  if (pg == nullptr) {
    reject_unheld(item);
    co_return;
  }
  const Time lock_t0 = sim_.now();
  // The worker blocks here while any other thread (another worker, the
  // finisher, an ack) holds this PG's lock — the head-of-line blocking of
  // paper Fig. 5.
  co_await pg->lock().lock();
  pg->trace_wait(item_span(item, id_), lock_t0, sim_.now());
  co_await process_item(item);
  pg->lock().unlock();
}

sim::CoTask<void> Osd::run_item_pending_queue(WorkItem item) {
  Pg* pg = find_pg(item.pg);
  if (pg == nullptr) {
    reject_unheld(item);
    co_return;
  }
  if (pg->busy) {
    // Park the op; this worker stays free for other PGs. Per-PG order is
    // preserved because the pending queue is drained FIFO by the owner.
    if (trace::Collector::active() != nullptr) item.trace_parked = sim_.now();
    pg->pending.push_back(std::move(item));
    pg->pending_defers++;
    co_return;
  }
  pg->busy = true;
  co_await process_item(item);
  while (!pg->pending.empty()) {
    WorkItem next = pg->pending.pop_front();
    // The park counts as PG ordering wait, same stage as the community
    // scheme's lock wait — the two profiles stay comparable in a trace.
    if (next.trace_parked != 0) pg->trace_wait(item_span(next, id_), next.trace_parked, sim_.now());
    co_await process_item(next);
  }
  pg->busy = false;
}

sim::CoTask<void> Osd::process_item(WorkItem& item) {
  switch (item.kind) {
    case WorkItem::kClientOp:
      if (item.op->msg->is_write) {
        co_await process_client_write(item);
      } else {
        co_await backend_->client_read(item);
      }
      break;
    case WorkItem::kReplicaOp:
      co_await process_replica_op(item);
      break;
    case WorkItem::kRepReplyEvent:
      co_await process_rep_reply_locked(item);
      break;
    case WorkItem::kAckEvent:
      co_await process_ack_locked(item);
      break;
  }
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

sim::CoTask<ObjectMeta> Osd::ensure_object_meta(const fs::ObjectId& oid) {
  if (auto m = meta_cache_.lookup(oid)) co_return *m;
  ObjectMeta meta;
  if (meta_cache_.authoritative()) {
    // Write-through cache warmed since boot: a miss is authoritative and
    // costs no storage read (§3.4: "most of the metadata exist in memory").
    meta.exists = store_->object_in_memory(oid) || store_->assume_populated();
    meta.size = meta.exists ? store::ObjectStore::kPopulatedObjectSize : 0;
  } else {
    // Community read-modify-write: object_info then snapset, from the
    // filestore — device reads that land in the middle of the write stream.
    auto oi = co_await store_->getattr(oid, "_");
    meta.exists = oi.has_value();
    if (meta.exists) {
      auto ss = co_await store_->getattr(oid, "snapset");
      (void)ss;
      meta.size = store_->assume_populated() ? store::ObjectStore::kPopulatedObjectSize
                                             : store_->object_size(oid);
    }
  }
  meta_cache_.insert(oid, meta);
  co_return meta;
}

// ---------------------------------------------------------------------------
// Primary write path
// ---------------------------------------------------------------------------

sim::CoTask<void> Osd::process_client_write(WorkItem& item) {
  OpRef op = item.op;
  ClientIoMsg& msg = *op->msg;
  Pg& pg = *find_pg(item.pg);

  co_await dlog_.log(cfg_.log_entries_dispatch);
  ObjectMeta meta = co_await ensure_object_meta(msg.oid);
  co_await charge_cpu(cfg_.prepare_cpu, true);
  co_await backend_->plan_write(*op);

  const std::vector<std::uint32_t>& acting = pg.acting();
  const auto self = std::find(acting.begin(), acting.end(), id_);
  if (self == acting.end()) {
    // A stale-map client reached an OSD that holds no position.
    fail_op(op);
    co_return;
  }

  const std::uint64_t version = pg.next_version();
  op->version = version;
  const OpCtx::ShardRef local = op->shard(unsigned(self - acting.begin()));
  fs::Transaction txn =
      build_write_txn(pg, local.oid, local.offset, local.data, version, /*primary=*/true);

  // Every write refreshes the in-memory object context (community Ceph does
  // this too); the community/AFCeph difference is the cache's capacity and
  // whether a miss forces a storage read.
  meta_cache_.insert(msg.oid,
                     ObjectMeta{true, std::max(meta.size, msg.offset + msg.data.size()), version});

  // Fan out: one sub-op per remote position, ack when every journal (local
  // and remote) has committed.
  op->commits_needed = 1;
  for (unsigned p = 0; p < unsigned(acting.size()); p++) {
    const std::uint32_t member = acting[p];
    if (member == id_ || member == cluster::ClusterMap::kNoOsd) continue;
    if (peer(member) == nullptr) continue;  // unreachable (degraded test setups)
    op->commits_needed++;
    send_rep_op(*op, {member, p});
    op->waiting_peers.push_back({member, p});
  }
  op->commits_planned = op->commits_needed;
  op->min_commits = backend_->min_commits(op->commits_needed);
  if (cfg_.rep_timeout > 0 && !op->waiting_peers.empty()) arm_rep_timer(op);
  op->stamp(kStSubmitted, sim_.now());
  co_await submit_txn(item, std::move(txn));
}

fs::Transaction Osd::build_write_txn(Pg& pg, const fs::ObjectId& oid, std::uint64_t off,
                                     const Payload& data, std::uint64_t version,
                                     bool primary) {
  fs::Transaction txn;
  txn.reserve(5);  // write, omap, attrs, alloc hint, log trim
  txn.write(oid, off, data);
  {
    std::vector<std::pair<std::string, kv::Value>> kvs;
    kvs.emplace_back(pg.log_key(version), kv::Value::virt(std::uint32_t(cfg_.pg_log_entry_bytes)));
    kvs.emplace_back(pg.info_key(), kv::Value::virt(std::uint32_t(cfg_.pg_info_bytes)));
    txn.omap_setkeys(oid, std::move(kvs));
  }
  if (primary) {
    txn.setattrs(oid, {{"_", kv::Value::virt(std::uint32_t(cfg_.attr_oi_bytes))},
                       {"snapset", kv::Value::virt(std::uint32_t(cfg_.attr_ss_bytes))}});
  } else {
    txn.setattrs(oid, {{"_", kv::Value::virt(std::uint32_t(cfg_.attr_oi_bytes))}});
  }
  if (!profile_.skip_alloc_hint) txn.set_alloc_hint(oid);
  if (primary && version % cfg_.pg_log_trim_every == 0 &&
      version > pg.log_floor + cfg_.pg_log_keep) {
    const std::uint64_t new_floor = version - cfg_.pg_log_keep;
    txn.omap_rmkeyrange(oid, pg.log_key(pg.log_floor), pg.log_key(new_floor));
    pg.log_floor = new_floor;
  }
  return txn;
}

sim::CoTask<void> Osd::submit_txn(const WorkItem& item, fs::Transaction txn) {
  if (trace::Collector::active() != nullptr) txn.trace = item_span(item, id_);
  const std::uint64_t bytes = txn.encoded_bytes();
  const Time admit_t0 = sim_.now();
  co_await store_->admit(bytes);
  if (const OpRef& op = item.op) {
    if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
      if (const Time admitted = sim_.now(); admitted > admit_t0) {
        tr->complete(op->span, tr->stage_id(stage::kJournalThrottle), admit_t0, admitted);
      }
    }
    op->stamp(kStJournalQ, sim_.now());
    client_writes_++;
  } else {
    replica_ops_++;
  }
  sim::spawn(commit_txn(item, std::move(txn), bytes));
}

sim::CoTask<void> Osd::commit_txn(WorkItem item, fs::Transaction txn, std::uint64_t bytes) {
  const bool committed = co_await store_->queue_transaction(
      std::move(txn), bytes, profile_.light_transactions, item.op);
  if (!committed) co_return;  // store closing: not committed, must not ack
  if (profile_.dedicated_completion) {
    // OP-lock work only. A primary defers its PG-side status work to the
    // batched completion worker; a replica acks straight from here.
    co_await charge_cpu(cfg_.oplock_cpu, false);
    if (item.op != nullptr) {
      completion_q_.try_push(CompletionEvent{CompletionEvent::kCommit, item.op, item.pg, {}, nullptr});
    } else {
      send_rep_reply(item.conn, *item.rep, 0);
    }
  } else if (item.op != nullptr) {
    finisher_q_.try_push(CompletionEvent{CompletionEvent::kCommit, item.op, item.pg, {}, nullptr});
  } else {
    // Community: the commit notification is finisher work under the PG lock.
    finisher_q_.try_push(
        CompletionEvent{CompletionEvent::kRepCommitSend, nullptr, item.pg, item.rep, item.conn});
  }
}

sim::CoTask<void> Osd::on_commit(const OpRef& op) {
  if (op != nullptr) op->stamp(kStJournaled, sim_.now());
  co_await dlog_.log(cfg_.log_entries_journal);
}

sim::CoTask<void> Osd::on_applied(const OpRef& op) {
  if (op == nullptr) co_return;
  if (profile_.dedicated_completion) {
    co_await charge_cpu(cfg_.oplock_cpu, false);
  } else {
    finisher_q_.try_push(CompletionEvent{CompletionEvent::kApplied, op, op->msg->pg, {}, nullptr});
  }
}

// ---------------------------------------------------------------------------
// Replica path
// ---------------------------------------------------------------------------

sim::CoTask<void> Osd::process_replica_op(WorkItem& item) {
  RepOpMsg& rep = *item.rep;
  if (agent_ != nullptr && agent_->fences_rep_op(rep, item.conn)) co_return;
  Pg* pgp = find_pg(item.pg);
  if (pgp == nullptr) co_return;
  Pg& pg = *pgp;

  co_await dlog_.log(cfg_.log_entries_replica);
  co_await charge_cpu(cfg_.replica_prepare_cpu, true);
  pg.observe_version(rep.version);
  co_await submit_txn(item, build_write_txn(pg, rep.oid, rep.offset, rep.data, rep.version,
                                            /*primary=*/false));
}

void Osd::send_rep_reply(net::Connection* conn, const RepOpMsg& rep, std::uint64_t fence_epoch) {
  if (conn == nullptr) return;
  auto reply = std::make_shared<RepReplyMsg>();
  reply->op_id = rep.op_id;
  reply->pg = rep.pg;
  reply->from_osd = id_;
  reply->fenced = fence_epoch != 0;
  reply->map_epoch = fence_epoch;
  net::Message wire;
  wire.type = kRepReply;
  wire.size = cfg_.reply_msg_bytes;
  wire.body = std::move(reply);
  if (trace::Collector::active() != nullptr) {
    wire.trace = trace::Span{rep.op_id, trace::osd_track(id_)};
  }
  conn->send(std::move(wire));
}

// ---------------------------------------------------------------------------
// Community events routed back through the OP_WQ
// ---------------------------------------------------------------------------

sim::CoTask<void> Osd::process_rep_reply_locked(WorkItem& item) {
  co_await charge_cpu(cfg_.repreply_cpu, true);
  item.op->commits_seen++;
  item.op->stamp(kStRepAcked, sim_.now());
  handle_commit_recorded(item.op);
}

sim::CoTask<void> Osd::process_ack_locked(WorkItem& item) {
  co_await charge_cpu(cfg_.ack_cpu, true);
  co_await dlog_.log(cfg_.log_entries_ack);
  deliver_ack(item.op);
}

// ---------------------------------------------------------------------------
// Completions
// ---------------------------------------------------------------------------

void Osd::handle_commit_recorded(OpRef& op) {
  if (op->commits_seen < op->commits_needed || op->acked || op->failed) return;
  disarm_rep_timer(*op);
  if (op->commits_seen < op->min_commits) {
    // The watchdog abandoned so many peers that fewer than min_size copies
    // are durable: the write must not be acknowledged.
    fail_op(op);
    return;
  }
  op->acked = true;
  if (profile_.fast_ack) {
    fast_ack_now(op);
  } else {
    WorkItem item;
    item.kind = WorkItem::kAckEvent;
    item.pg = op->msg->pg;
    item.op = op;
    shard_push(std::move(item));  // the ack competes with data ops again
  }
}

// ---------------------------------------------------------------------------
// Replication recovery (inert while OsdConfig::rep_timeout == 0)
// ---------------------------------------------------------------------------

void Osd::send_rep_op(OpCtx& op, OpCtx::SubOp sub) {
  net::Connection* conn = peer(sub.peer);
  if (conn == nullptr) return;
  const OpCtx::ShardRef shard = op.shard(sub.pos);
  auto rep = std::make_shared<RepOpMsg>();
  rep->op_id = op.msg->op_id;
  rep->pg = op.msg->pg;
  rep->version = op.version;
  // Watchdog resends restamp with the fresh map; oracle mode stamps 0.
  rep->epoch = agent_ != nullptr ? agent_->known_epoch() : 0;
  rep->oid = shard.oid;
  rep->offset = shard.offset;
  rep->data = shard.data;
  net::Message wire;
  wire.type = kRepOp;
  wire.size = rep->data.size() + cfg_.repop_header_bytes;
  wire.body = std::move(rep);
  wire.trace = op.span;
  conn->send(std::move(wire));
}

void Osd::arm_rep_timer(OpRef& op) {
  op->rep_timer_armed = true;
  op->rep_timer = sim_.schedule_after(
      cfg_.rep_timeout, [this, id = op->msg->op_id] { on_rep_timeout(id); },
      "osd.rep_timeout");
}

void Osd::disarm_rep_timer(OpCtx& op) {
  if (!op.rep_timer_armed) return;
  op.rep_timer_armed = false;
  sim_.cancel(op.rep_timer);
}

void Osd::on_rep_timeout(std::uint64_t op_id) {
  const OpRef* found = inflight_.find(op_id);
  if (found == nullptr) return;
  OpRef op = *found;
  op->rep_timer_armed = false;
  if (op->acked || op->failed || op->waiting_peers.empty()) return;
  if (op->rep_retries < cfg_.rep_retries) {
    op->rep_retries++;
    counters_.add("osd.rep_retry_rounds");
    if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
      tr->instant(op->span, tr->stage_id(stage::kOsdRepRetry), sim_.now());
    }
    for (const OpCtx::SubOp& sub : op->waiting_peers) send_rep_op(*op, sub);
    arm_rep_timer(op);
    return;
  }
  // Retries exhausted: abandon the silent peers and resolve the op with
  // whatever is durable — a degraded ack if min_size copies committed,
  // an ok=false failure otherwise.
  if (agent_ != nullptr && !agent_->may_abandon(op->waiting_peers)) {
    counters_.add("osd.rep_unresolved_failures");
    fail_op(op);
    return;
  }
  counters_.add("osd.rep_peers_abandoned", op->waiting_peers.size());
  op->commits_needed -= unsigned(op->waiting_peers.size());
  op->waiting_peers.clear();
  handle_commit_recorded(op);
}

void Osd::fail_op(OpRef op) {
  if (op->acked || op->failed) return;
  op->failed = true;
  disarm_rep_timer(*op);
  counters_.add("osd.write_failures");
  ClientIoMsg& msg = *op->msg;
  close_client_op(msg);
  if (profile_.ordered_acks && msg.is_write) {
    // Drop the failed op from the ordered-ack ledger, then drain any acks it
    // was holding back.
    auto& st = ack_state_[msg.client_id];
    st.outstanding.erase(msg.op_id);
    st.held.erase(msg.op_id);
    while (!st.held.empty() && !st.outstanding.empty() &&
           st.held.begin()->first == *st.outstanding.begin()) {
      OpRef next = st.held.begin()->second;
      st.held.erase(st.held.begin());
      st.outstanding.erase(st.outstanding.begin());
      send_reply_message(next);
    }
  }
  auto reply = std::make_shared<IoReplyMsg>();
  reply->ok = false;
  send_io_reply(op->reply_conn, msg, std::move(reply), op->span);
  if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
    tr->end(op->span, tr->stage_id(stage::kWriteOp), sim_.now());
  }
}

void Osd::fast_ack_now(OpRef op) {
  sim::spawn_fn([this, op]() mutable -> sim::CoTask<void> {
    co_await charge_cpu(cfg_.fast_ack_cpu, false);
    deliver_ack(op);
  });
}

sim::CoTask<void> Osd::finisher_loop() {
  // Community Ceph: ONE finisher thread handles every journal and filestore
  // completion, each needing the PG lock (§2.3: "a single thread handles all
  // of the completion works ... and it also needs PG Lock").
  for (;;) {
    auto evt = co_await finisher_q_.pop();
    if (!evt) break;
    Pg* pg = find_pg(evt->pg);
    if (pg == nullptr) continue;
    co_await pg->lock().lock();
    co_await charge_cpu(cfg_.commit_cpu, false);
    switch (evt->kind) {
      case CompletionEvent::kCommit:
      case CompletionEvent::kRepCommit:
        evt->op->commits_seen++;
        evt->op->stamp(evt->kind == CompletionEvent::kCommit ? kStCommitEvt : kStRepAcked,
                       sim_.now());
        handle_commit_recorded(evt->op);
        break;
      case CompletionEvent::kApplied:
        break;  // bookkeeping only
      case CompletionEvent::kRepCommitSend:
        send_rep_reply(evt->conn, *evt->rep, 0);
        break;
    }
    pg->lock().unlock();
  }
}

sim::CoTask<void> Osd::completion_worker_loop() {
  // AFCeph Fig. 6: deferred completion work is drained in batches; no PG
  // lock is taken — op ordering was already fixed when the op entered the
  // PG's pending queue, and per-op status updates are OP-lock-scale work.
  for (;;) {
    auto first = co_await completion_q_.pop();
    if (!first) break;
    std::vector<CompletionEvent> batch{std::move(*first)};
    while (batch.size() < cfg_.completion_batch_max && !completion_q_.empty()) {
      auto more = co_await completion_q_.pop();
      if (!more) break;
      batch.push_back(std::move(*more));
    }
    co_await charge_cpu(
        cfg_.completion_batch_overhead + cfg_.completion_batch_cpu * Time(batch.size()), false);
    for (auto& evt : batch) {
      switch (evt.kind) {
        case CompletionEvent::kCommit:
          evt.op->commits_seen++;
          evt.op->stamp(kStCommitEvt, sim_.now());
          handle_commit_recorded(evt.op);
          break;
        case CompletionEvent::kRepCommit:
          handle_commit_recorded(evt.op);  // counted at dispatch already
          break;
        case CompletionEvent::kApplied:
        case CompletionEvent::kRepCommitSend:
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Replies: read results and ordered write acks
// ---------------------------------------------------------------------------

void Osd::send_read_reply(OpRef& op, bool ok, std::uint64_t data_len,
                          std::optional<std::vector<std::uint8_t>> data) {
  ClientIoMsg& msg = *op->msg;
  close_client_op(msg);
  auto reply = std::make_shared<IoReplyMsg>();
  reply->ok = ok;
  reply->data_len = data_len;
  reply->data = std::move(data);
  send_io_reply(op->reply_conn, msg, std::move(reply), op->span);
  if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
    tr->end(op->span, tr->stage_id(stage::kReadOp), sim_.now());
  }
}

void Osd::deliver_ack(OpRef op) {
  if (!profile_.ordered_acks) {
    send_reply_message(op);
    return;
  }
  // §3.1: batched completions may complete ops out of client order; when the
  // client asked for ordered acks, hold an ack until all earlier ops from
  // that client (at this OSD) have been acked.
  auto& st = ack_state_[op->msg->client_id];
  if (st.outstanding.find(op->msg->op_id) == st.outstanding.end()) {
    // Not in the ledger: a zombie completing after a crash wiped this
    // daemon's RAM. Reply directly (the client discards stale replies)
    // instead of parking it in `held`, where it would wedge every
    // post-restart ack behind an op id that will never reach the head.
    send_reply_message(op);
    return;
  }
  st.held.emplace(op->msg->op_id, op);
  while (!st.held.empty() && !st.outstanding.empty() &&
         st.held.begin()->first == *st.outstanding.begin()) {
    OpRef next = st.held.begin()->second;
    st.held.erase(st.held.begin());
    st.outstanding.erase(st.outstanding.begin());
    send_reply_message(next);
  }
}

void Osd::send_reply_message(OpRef& op) {
  ClientIoMsg& msg = *op->msg;
  // Safety invariant: acks_below_min_size must stay 0 under every fault plan
  // (the chaos soak asserts it); acks_degraded counts legitimate degraded
  // acks issued after the watchdog abandoned a dead peer.
  if (op->commits_seen < op->min_commits) counters_.add("osd.acks_below_min_size");
  if (op->commits_seen < op->commits_planned) counters_.add("osd.acks_degraded");
  op->stamp(kStAcked, sim_.now());
  for (unsigned s = 1; s < kStageCount; s++) {
    if (op->ts[s] >= op->ts[s - 1] && op->ts[s] != 0) {
      stage_hist_[s].record(op->ts[s] - op->ts[s - 1]);
    }
  }
  write_total_.record(op->ts[kStAcked] - op->ts[kStRecv]);
  if (auto* tr = trace::Collector::active(); tr != nullptr && op->span.valid()) {
    // Mirror the Fig. 3 boundary deltas into the collector under the shared
    // names — same loop, same guard — so its per-stage histograms equal the
    // merged stage_hist_ data exactly and the bench can print from either.
    for (unsigned s = 1; s < kStageCount; s++) {
      if (op->ts[s] >= op->ts[s - 1] && op->ts[s] != 0) {
        tr->complete(op->span, tr->stage_id(kWriteStageNames[s]), op->ts[s - 1], op->ts[s]);
      }
    }
    if (op->ts[kStRepAcked] >= op->ts[kStSubmitted] && op->ts[kStRepAcked] != 0) {
      tr->complete(op->span, tr->stage_id(stage::kReplication), op->ts[kStSubmitted],
                   op->ts[kStRepAcked]);
    }
    tr->end(op->span, tr->stage_id(stage::kWriteOp), sim_.now());
  }

  close_client_op(msg);
  send_io_reply(op->reply_conn, msg, std::make_shared<IoReplyMsg>(), op->span);
}

void Osd::send_io_reply(net::Connection* conn, const ClientIoMsg& msg,
                        std::shared_ptr<IoReplyMsg> reply, trace::Span span) {
  reply->op_id = msg.op_id;
  reply->is_write = msg.is_write;
  reply->issued_at = msg.issued_at;
  net::Message wire;
  wire.type = msg.is_write ? kWriteReply : kReadReply;
  wire.size = reply->data_len + cfg_.reply_msg_bytes;
  wire.body = std::move(reply);
  wire.trace = span;
  if (conn != nullptr) conn->send(std::move(wire));
}

// ---------------------------------------------------------------------------
// Recovery / map changes
// ---------------------------------------------------------------------------

void Osd::set_pg_acting(std::uint32_t pgid, std::vector<std::uint32_t> acting) {
  Pg* pg = find_pg(pgid);
  if (pg == nullptr) {
    create_pg(pgid, std::move(acting));
  } else {
    pg->set_acting(std::move(acting));
  }
}

sim::CoTask<store::ObjectExport> Osd::push_export(const fs::ObjectId& oid) {
  store::ObjectExport data = store_->export_object(oid);
  std::uint64_t bytes = 0;
  for (const auto& [off, payload] : data.extents) bytes += payload.size();
  if (bytes > 0) {
    co_await store_->read(oid, 0, data.size, /*want_data=*/false);
    co_await node_.nic_transmit(bytes + 512);
    co_await sim::delay(sim_, 60 * kMicrosecond, "osd.push_hop");
  }
  co_return data;
}

sim::CoTask<void> Osd::recover_object(const fs::ObjectId& oid,
                                      store::ObjectExport data) {
  // Replace, don't merge: scrub compares whole-object fingerprints, so the
  // recovered replica must reproduce the source's exact extent layout —
  // stale extents in ranges the source never wrote may not survive.
  store_->remove_object(oid);
  fs::Transaction txn;
  for (auto& [off, payload] : data.extents) txn.write(oid, off, std::move(payload));
  if (!data.xattrs.empty()) txn.setattrs(oid, std::move(data.xattrs));
  co_await store_->apply_transaction(txn, /*lightweight=*/true);
  ObjectMeta meta;
  meta.exists = true;
  meta.size = data.size;
  meta_cache_.insert(oid, meta);
}

void Osd::attach_membership(const mon::MembershipConfig& cfg, net::Connection* mon_conn,
                            const std::vector<Osd*>& roster, std::uint64_t seed) {
  agent_ = std::make_unique<MembershipAgent>(*this, cfg, mon_conn, roster, seed);
}

void Osd::on_crash() {
  if (agent_ != nullptr) agent_->on_crash();
  inflight_.clear();
  ack_state_.clear();
  // A store with a deferred-write ledger loses it with the daemon's RAM;
  // its WAL records survive on media for replay.
  store_->on_daemon_crash();
  backend_->on_crash();
  // Ops parked in the QoS queues were only in this daemon's RAM; zombies
  // resolving after the crash must not underflow the fresh window either.
  if (qos_ != nullptr) qos_->reset();
}

sim::CoTask<void> Osd::on_restart() {
  // Replay completes before the caller marks this OSD up: no client op or
  // backfill push may land while possibly-stale records re-apply, or a
  // replayed write could clobber data written during the downtime.
  co_await store_->replay(profile_.light_transactions);
}

// ---------------------------------------------------------------------------
// Shutdown & stats
// ---------------------------------------------------------------------------

void Osd::close() {
  if (agent_ != nullptr) agent_->stop();
  for (auto& q : shard_queues_) q->close();
  finisher_q_.close();
  completion_q_.close();
  dlog_.close();
  store_->close();
  omap_.close();
  msgr_.close_all();
}

// The three sums below visit pgs_ in table order; integer sums do not
// depend on it.
std::uint64_t Osd::pending_defers() const {
  std::uint64_t total = 0;
  for (const auto& [id, pg] : pgs_) total += pg->pending_defers;
  return total;
}

Time Osd::pg_lock_wait_ns() const {
  Time total = 0;
  for (const auto& [id, pg] : pgs_) total += pg->lock().total_wait_ns();
  return total;
}

std::uint64_t Osd::pg_lock_contended() const {
  std::uint64_t total = 0;
  for (const auto& [id, pg] : pgs_) total += pg->lock().contended_acquisitions();
  return total;
}

}  // namespace afc::osd
