#include "osd/heartbeat.h"

#include <memory>

#include "common/stage_names.h"
#include "core/trace.h"
#include "osd/osd.h"

namespace afc::osd {

namespace {
constexpr std::uint64_t kPingBytes = 80;
}  // namespace

HeartbeatAgent::HeartbeatAgent(sim::Simulation& sim, Osd& osd,
                               const mon::MembershipConfig& cfg, std::uint64_t seed)
    : sim_(sim), osd_(osd), cfg_(cfg), rng_(seed) {}

void HeartbeatAgent::start() {
  running_ = true;
  refresh_peers();
  for (auto& [peer, st] : state_) st.last_seen = sim_.now();
  next_beacon_at_ = sim_.now();
  if (!armed_) schedule_next();
}

void HeartbeatAgent::stop() {
  running_ = false;
  if (armed_) {
    sim_.cancel(tick_timer_);
    armed_ = false;
  }
}

void HeartbeatAgent::refresh_peers() {
  peers_ = osd_.adjacent_peers();
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

void HeartbeatAgent::on_ping_reply(std::uint32_t from, Time echoed_sent_at) {
  auto it = state_.find(from);
  if (it == state_.end()) return;  // no longer adjacent
  PeerHb& st = it->second;
  st.last_seen = sim_.now();
  const double rtt = double(sim_.now() - echoed_sent_at);
  st.rtt_ewma_ns = st.rtt_ewma_ns == 0 ? rtt : 0.8 * st.rtt_ewma_ns + 0.2 * rtt;
  if (st.suspected) {
    st.suspected = false;
    osd_.counters().add("osd.hb_recoveries");
  }
}

void HeartbeatAgent::on_crash() {
  stop();
  state_.clear();
}

void HeartbeatAgent::on_restart() { start(); }

double HeartbeatAgent::rtt_ewma_ns(std::uint32_t peer) const {
  auto it = state_.find(peer);
  return it == state_.end() ? 0.0 : it->second.rtt_ewma_ns;
}

void HeartbeatAgent::tick() {
  armed_ = false;
  if (!running_) return;
  const Time now = sim_.now();
  for (std::uint32_t peer : peers_) {
    PeerHb& st = state_[peer];
    if (net::Connection* conn = osd_.peer_conn(peer); conn != nullptr) {
      auto ping = std::make_shared<HbPingMsg>();
      ping->from_osd = osd_.id();
      ping->sent_at = now;
      net::Message m;
      m.type = kHbPing;
      m.size = kPingBytes;
      m.body = std::move(ping);
      conn->send(std::move(m));
      osd_.counters().add("osd.hb_sent");
    }
    if (now - st.last_seen > cfg_.hb_grace) {
      if (!st.suspected) {
        st.suspected = true;
        osd_.counters().add("osd.hb_timeouts");
        if (auto* tr = trace::Collector::active()) {
          tr->instant(trace::Span{std::uint64_t(peer) + 1, trace::osd_track(osd_.id())},
                      tr->stage_id(stage::kHeartbeat), now);
        }
      }
      // Re-report every tick while suspicion holds: the monitor prunes
      // reports by age, so a one-shot report would expire before a slow
      // quorum assembles.
      osd_.report_failure(peer, /*laggy=*/false);
    } else if (st.rtt_ewma_ns > double(cfg_.laggy_rtt)) {
      // Alive — replies are arriving — but slow: gray failure.
      osd_.report_failure(peer, /*laggy=*/true);
    }
  }
  // Self check: heartbeats can stay crisp while the data path is wedged
  // (slow SSD, journal stall). An op in flight too long self-reports laggy.
  if (const Time oldest = osd_.oldest_inflight_recv();
      oldest != 0 && now - oldest > cfg_.laggy_op_age) {
    osd_.report_failure(osd_.id(), /*laggy=*/true);
  }
  if (now >= next_beacon_at_) {
    osd_.send_beacon(/*boot=*/false);
    next_beacon_at_ = now + cfg_.beacon_interval;
  }
  schedule_next();
}

void HeartbeatAgent::schedule_next() {
  // Seeded ±10% jitter: the fleet never pings in lockstep, and the stream
  // is this agent's own, so detected-mode runs replay deterministically.
  // A daemon event: the tick re-arms forever, but it must not keep
  // Simulation::run() from returning once the cluster's real work is done.
  const double jitter = 0.9 + 0.2 * rng_.uniform();
  armed_ = true;
  tick_timer_ = sim_.schedule_daemon_after(Time(double(cfg_.hb_interval) * jitter),
                                           [this] { tick(); }, "osd.hb_tick");
}

}  // namespace afc::osd
