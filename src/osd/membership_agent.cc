#include "osd/membership_agent.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/stage_names.h"
#include "core/trace.h"
#include "osd/osd.h"
#include "osd/recovery.h"

namespace afc::osd {

namespace {

constexpr std::uint64_t kPingBytes = 80;

void send_msg(net::Connection& conn, int type, std::uint64_t size,
              std::shared_ptr<net::MsgBody> body) {
  net::Message m;
  m.type = type;
  m.size = size;
  m.body = std::move(body);
  conn.send(std::move(m));
}

}  // namespace

MembershipAgent::MembershipAgent(Osd& osd, const mon::MembershipConfig& cfg,
                                 net::Connection* mon_conn, const std::vector<Osd*>& roster,
                                 std::uint64_t seed)
    : sim_(osd.sim_),
      osd_(osd),
      cfg_(cfg),
      mon_conn_(mon_conn),
      roster_(roster),
      rng_(seed),
      known_epoch_(osd.cmap_.epoch()),
      known_down_(osd.cmap_.crush().osd_count(), false) {}

void MembershipAgent::start() {
  running_ = true;
  refresh_peers();
  for (auto& [peer, st] : state_) st.last_seen = sim_.now();
  next_beacon_at_ = sim_.now();
  if (!armed_) schedule_next();
}

void MembershipAgent::stop() {
  running_ = false;
  if (armed_) {
    sim_.cancel(tick_timer_);
    armed_ = false;
  }
}

void MembershipAgent::on_crash() {
  stop();
  state_.clear();
}

void MembershipAgent::announce_boot() {
  start();
  send_beacon(/*boot=*/true);
}

void MembershipAgent::on_message(const net::Message& m) {
  switch (m.type) {
    case kHbPing: {
      // Answered inline from dispatch with no CPU charge: heartbeats must
      // measure the *network* path, not queueing — a busy OSD with a live
      // link is alive (the laggy watermarks cover slow, not this).
      const auto& ping = static_cast<const HbPingMsg&>(*m.body);
      if (m.reply_to != nullptr) {
        auto reply = std::make_shared<HbPingReplyMsg>();
        reply->from_osd = osd_.id();
        reply->sent_at = ping.sent_at;
        send_msg(*m.reply_to, kHbPingReply, kPingBytes, std::move(reply));
      }
      break;
    }
    case kHbPingReply: {
      const auto& pr = static_cast<const HbPingReplyMsg&>(*m.body);
      on_ping_reply(pr.from_osd, pr.sent_at);
      break;
    }
    case kMapDelta:
      apply_map_delta(static_cast<const MapDeltaMsg&>(*m.body));
      break;
  }
}

bool MembershipAgent::admit_client_op(const ClientIoMsg& msg, net::Connection* conn) {
  if (msg.epoch == 0) return true;
  if (msg.epoch > known_epoch_) {
    // The client knows a newer map than we do: serve the op (its routing
    // was at least as fresh as ours) but catch up.
    request_map();
  } else if (msg.epoch < known_epoch_) {
    // Epoch fence: the client routed with a stale map. Reject before any
    // throttle or ledger admission — it may have picked the wrong
    // primary, and a split-brain ex-primary must not keep acking writes.
    osd_.counters_.add("osd.fenced_ops");
    auto reply = std::make_shared<IoReplyMsg>();
    reply->ok = false;
    reply->fenced = true;
    reply->map_epoch = known_epoch_;
    osd_.send_io_reply(conn, msg, std::move(reply), {});
    return false;
  }
  return true;
}

bool MembershipAgent::fences_rep_op(const RepOpMsg& rep, net::Connection* conn) {
  if (rep.epoch == 0 || rep.epoch >= known_epoch_) return false;
  // The primary prepared this sub-op under a map older than ours. Reject
  // before journaling — a stale ex-primary's write must not gain durable
  // copies — and tell it what to catch up to.
  osd_.counters_.add("osd.fenced_rep_ops");
  osd_.send_rep_reply(conn, rep, known_epoch_);
  return true;
}

void MembershipAgent::on_rep_fenced(OpCtx& op, const RepReplyMsg& reply) {
  // The replica's map outpaced this rep-op's stamped epoch. The publish
  // that fenced it has usually reached us too by now — restamp and resend
  // straight away; if not, fetch the map and let the watchdog's next
  // resend round carry the fresh epoch.
  osd_.counters_.add("osd.fenced_rep_replies");
  if (known_epoch_ >= reply.map_epoch) {
    const auto sub =
        std::find_if(op.waiting_peers.begin(), op.waiting_peers.end(),
                     [&](const OpCtx::SubOp& w) { return w.peer == reply.from_osd; });
    if (!op.acked && !op.failed && sub != op.waiting_peers.end()) osd_.send_rep_op(op, *sub);
  } else {
    request_map();
  }
}

bool MembershipAgent::may_abandon(const std::vector<OpCtx::SubOp>& waiting) const {
  // Degraded-ack gating: only a peer the learned map has marked down may
  // be abandoned. A silent-but-up peer could mean *we* are the partitioned
  // side — if the monitor later swings the PG to that peer, an ack issued
  // then becomes acked-then-lost. The watchdog fails the op instead; the
  // client retries against whatever primary the healed map names.
  return std::all_of(waiting.begin(), waiting.end(), [this](const OpCtx::SubOp& sub) {
    return sub.peer < known_down_.size() && known_down_[sub.peer];
  });
}

void MembershipAgent::refresh_peers() {
  // Any order over pgs_ gives the same set.
  std::set<std::uint32_t> adjacent;
  for (const auto& [pgid, pg] : osd_.pgs_) {
    for (std::uint32_t m : pg->acting()) {
      if (m != osd_.id() && m != cluster::ClusterMap::kNoOsd) adjacent.insert(m);
    }
  }
  peers_.assign(adjacent.begin(), adjacent.end());
  // Drop state for peers no longer adjacent; baseline newcomers at now so
  // they get a full grace period before suspicion.
  std::erase_if(state_, [this](const auto& kv) {
    return std::find(peers_.begin(), peers_.end(), kv.first) == peers_.end();
  });
  for (std::uint32_t peer : peers_) {
    auto [it, fresh] = state_.try_emplace(peer);
    if (fresh) it->second.last_seen = sim_.now();
  }
}

void MembershipAgent::on_ping_reply(std::uint32_t from, Time echoed_sent_at) {
  auto it = state_.find(from);
  if (it == state_.end()) return;  // no longer adjacent
  PeerHb& st = it->second;
  st.last_seen = sim_.now();
  const double rtt = double(sim_.now() - echoed_sent_at);
  st.rtt_ewma_ns = st.rtt_ewma_ns == 0 ? rtt : 0.8 * st.rtt_ewma_ns + 0.2 * rtt;
  if (st.suspected) {
    st.suspected = false;
    osd_.counters_.add("osd.hb_recoveries");
  }
}

void MembershipAgent::tick() {
  armed_ = false;
  if (!running_) return;
  const Time now = sim_.now();
  for (std::uint32_t peer : peers_) {
    PeerHb& st = state_[peer];
    if (net::Connection* conn = osd_.peer(peer)) {
      auto ping = std::make_shared<HbPingMsg>();
      ping->from_osd = osd_.id();
      ping->sent_at = now;
      send_msg(*conn, kHbPing, kPingBytes, std::move(ping));
      osd_.counters_.add("osd.hb_sent");
    }
    if (now - st.last_seen > cfg_.hb_grace) {
      if (!st.suspected) {
        st.suspected = true;
        osd_.counters_.add("osd.hb_timeouts");
        if (auto* tr = trace::Collector::active()) {
          tr->instant(trace::Span{std::uint64_t(peer) + 1, trace::osd_track(osd_.id())},
                      tr->stage_id(stage::kHeartbeat), now);
        }
      }
      // Re-report every tick while suspicion holds: the monitor prunes
      // reports by age, so a one-shot report would expire before a slow
      // quorum assembles.
      report_failure(peer, /*laggy=*/false);
    } else if (st.rtt_ewma_ns > double(cfg_.laggy_rtt)) {
      // Alive — replies are arriving — but slow: gray failure.
      report_failure(peer, /*laggy=*/true);
    }
  }
  // Self check: heartbeats can stay crisp while the data path is wedged
  // (slow SSD, journal stall). An op in flight too long self-reports laggy.
  Time oldest = 0;  // a minimum: any order over inflight_ finds the same one
  for (const auto& [op_id, op] : osd_.inflight_) {
    const Time t = op->ts[kStRecv];
    if (t != 0 && (oldest == 0 || t < oldest)) oldest = t;
  }
  if (oldest != 0 && now - oldest > cfg_.laggy_op_age) {
    report_failure(osd_.id(), /*laggy=*/true);
  }
  if (now >= next_beacon_at_) {
    send_beacon(/*boot=*/false);
    next_beacon_at_ = now + cfg_.beacon_interval;
  }
  schedule_next();
}

void MembershipAgent::schedule_next() {
  // Seeded ±10% jitter: the fleet never pings in lockstep, and the stream
  // is this agent's own, so detected-mode runs replay deterministically.
  // A daemon event: the tick re-arms forever, but it must not keep
  // Simulation::run() from returning once the cluster's real work is done.
  const double jitter = 0.9 + 0.2 * rng_.uniform();
  armed_ = true;
  tick_timer_ = sim_.schedule_daemon_after(Time(double(cfg_.hb_interval) * jitter),
                                           [this] { tick(); }, "osd.hb_tick");
}

void MembershipAgent::report_failure(std::uint32_t target, bool laggy) {
  osd_.counters_.add(laggy ? "osd.laggy_reports" : "osd.failure_reports");
  auto body = std::make_shared<FailureReportMsg>();
  body->reporter = osd_.id();
  body->target = target;
  body->laggy = laggy;
  send_msg(*mon_conn_, kFailureReport, 96, std::move(body));
}

void MembershipAgent::send_beacon(bool boot) {
  osd_.counters_.add("osd.beacons");
  auto body = std::make_shared<MonBeaconMsg>();
  body->osd = osd_.id();
  body->boot = boot;
  send_msg(*mon_conn_, kMonBeacon, 64, std::move(body));
}

void MembershipAgent::request_map() {
  if (requested_epoch_ == known_epoch_) return;
  requested_epoch_ = known_epoch_;  // one request per epoch we are stuck at
  osd_.counters_.add("osd.map_requests");
  send_msg(*mon_conn_, kMapRequest, 32, std::make_shared<MapRequestMsg>());
}

void MembershipAgent::apply_map_delta(const MapDeltaMsg& delta) {
  if (delta.epoch <= known_epoch_) {
    osd_.counters_.add("osd.map_deltas_stale");
    return;
  }
  known_epoch_ = delta.epoch;
  osd_.counters_.add("osd.map_updates");
  if (auto* tr = trace::Collector::active()) {
    tr->instant(trace::Span{delta.epoch, trace::osd_track(osd_.id())},
                tr->stage_id(stage::kMapUpdate), sim_.now());
  }
  const cluster::ClusterMap& cmap = osd_.cmap_;
  known_down_.assign(cmap.crush().osd_count(), false);
  for (std::uint32_t o : delta.down)
    if (o < known_down_.size()) known_down_[o] = true;

  // Re-derive this OSD's PGs under the new map (ascending pgid: spawn order
  // is part of the determinism contract): hold every PG this OSD is now a
  // member of, and drive the recovery rule (osd/recovery.h) for each moved
  // PG whose source it is — the detected-mode counterpart of the oracle
  // injector's retarget.
  for (std::uint32_t pgid = 0; pgid < cmap.pool().pg_num; pgid++) {
    const std::vector<std::uint32_t>& now = cmap.acting(pgid);
    Pg* pg = osd_.find_pg(pgid);
    if (pg == nullptr) {
      if (std::find(now.begin(), now.end(), osd_.id()) != now.end()) osd_.create_pg(pgid, now);
      continue;
    }
    if (pg->acting() == now) continue;
    const PgRemap r = osd_.pg_backend().plan_remap(pgid, pg->acting());
    pg->set_acting(now);
    if (r.source != osd_.id()) continue;
    for (unsigned pos : r.targets) {
      osd_.counters_.add(r.decode ? "osd.map_rebuilds" : "osd.map_backfills");
      sim::spawn_fn([this, r, pos]() -> sim::CoTask<void> {
        co_await recover_target(roster_, r, pos);
      });
    }
  }
  refresh_peers();
}

}  // namespace afc::osd
