#include "mon/monitor.h"

#include <algorithm>

#include "common/stage_names.h"
#include "core/trace.h"
#include "osd/op.h"

namespace afc::mon {

namespace {

/// Wire size of a map delta: fixed header + 4 bytes per listed member.
std::uint64_t delta_size(const osd::MapDeltaMsg& d) {
  return 64 + 4 * (d.down.size() + d.out.size() + d.laggy.size());
}

}  // namespace

Monitor::Monitor(sim::Simulation& sim, cluster::ClusterMap& cmap, const MembershipConfig& cfg)
    : sim_(sim), cmap_(cmap), cfg_(cfg) {
  const std::size_t n = cmap_.crush().osd_count();
  state_.resize(n);
  dead_reports_.resize(n);
  laggy_reports_.resize(n);
}

Monitor::~Monitor() { close(); }

void Monitor::add_osd_subscriber(std::uint32_t osd, net::Connection* conn) {
  osd_subs_.emplace_back(osd, conn);
  if (osd >= state_.size()) {
    state_.resize(osd + 1);
    dead_reports_.resize(osd + 1);
    laggy_reports_.resize(osd + 1);
  }
}

void Monitor::add_client_subscriber(net::Connection* conn) { client_subs_.push_back(conn); }

sim::CoTask<void> Monitor::on_message(net::Message m) {
  switch (m.type) {
    case osd::kFailureReport: {
      const auto& r = static_cast<const osd::FailureReportMsg&>(*m.body);
      handle_report(r.reporter, r.target, r.laggy);
      break;
    }
    case osd::kMonBeacon: {
      const auto& b = static_cast<const osd::MonBeaconMsg&>(*m.body);
      handle_beacon(b.osd, b.boot);
      break;
    }
    case osd::kMapRequest:
      counters_.add("mon.map_requests");
      if (m.reply_to != nullptr) m.reply_to->send(make_delta());
      break;
    default:
      break;
  }
  co_return;
}

unsigned Monitor::fresh_reporters(std::vector<Report>& reports) const {
  const Time now = sim_.now();
  const Time ttl = cfg_.report_ttl;
  std::erase_if(reports, [&](const Report& r) { return r.at + ttl < now; });
  return unsigned(reports.size());  // one entry per distinct reporter
}

void Monitor::handle_report(std::uint32_t reporter, std::uint32_t target, bool laggy) {
  if (target >= state_.size()) return;
  counters_.add(laggy ? "mon.laggy_reports" : "mon.failure_reports");
  auto& reports = laggy ? laggy_reports_[target] : dead_reports_[target];
  bool updated = false;
  for (auto& r : reports) {
    if (r.reporter == reporter) {
      r.at = sim_.now();
      updated = true;
      break;
    }
  }
  if (!updated) reports.push_back({reporter, sim_.now()});

  if (laggy) {
    // A self-report (op-age watermark) is trusted outright; peer RTT
    // observations need the same reporter quorum as failure reports.
    if (reporter == target || fresh_reporters(laggy_reports_[target]) >= cfg_.min_reporters) {
      flag_laggy(target);
    }
    return;
  }

  if (state_[target].down) return;
  if (fresh_reporters(dead_reports_[target]) < cfg_.min_reporters) return;

  // Flap hysteresis: each recent mark-down of this OSD doubles the quiet
  // period required before the next one sticks.
  auto& history = state_[target].markdown_history;
  const Time now = sim_.now();
  std::erase_if(history, [&](Time t) { return t + cfg_.flap_window < now; });
  if (!history.empty()) {
    const Time quiet = cfg_.markdown_backoff
                       << std::min<std::size_t>(history.size() - 1, 6);
    if (now < history.back() + quiet) {
      counters_.add("mon.markdowns_deferred");
      return;
    }
  }
  mark_down(target);
}

void Monitor::handle_beacon(std::uint32_t osd, bool boot) {
  if (osd >= state_.size()) return;
  if (boot) counters_.add("mon.boots");
  if (state_[osd].down) mark_up(osd);
}

void Monitor::mark_down(std::uint32_t osd) {
  OsdState& s = state_[osd];
  s.down = true;
  s.markdown_history.push_back(sim_.now());
  cmap_.crush().set_up_only(osd, false);
  markdowns_.push_back({osd, sim_.now()});
  counters_.add("mon.markdowns");
  if (liveness_probe_ && !liveness_probe_(osd)) counters_.add("mon.false_downs");
  dead_reports_[osd].clear();
  if (cfg_.down_out_interval > 0) {
    if (s.down_out_armed) sim_.cancel(s.down_out_timer);
    s.down_out_armed = true;
    s.down_out_timer = sim_.schedule_after(
        cfg_.down_out_interval,
        [this, osd] {
          state_[osd].down_out_armed = false;
          if (!closing_ && state_[osd].down && !state_[osd].out) mark_out(osd);
        },
        "mon.down_out");
  }
  publish();
}

void Monitor::mark_up(std::uint32_t osd) {
  OsdState& s = state_[osd];
  s.down = false;
  if (s.down_out_armed) {
    sim_.cancel(s.down_out_timer);
    s.down_out_armed = false;
  }
  cmap_.crush().set_up_only(osd, true);
  if (s.out) {
    // A returning OSD rejoins placement immediately (auto mark-in).
    s.out = false;
    cmap_.crush().set_in(osd, true);
  }
  dead_reports_[osd].clear();
  markups_.push_back({osd, sim_.now()});
  counters_.add("mon.markups");
  publish();
}

void Monitor::mark_out(std::uint32_t osd) {
  state_[osd].out = true;
  cmap_.crush().set_in(osd, false);
  markouts_.push_back({osd, sim_.now()});
  counters_.add("mon.markouts");
  publish();
}

void Monitor::flag_laggy(std::uint32_t osd) {
  OsdState& s = state_[osd];
  s.laggy_refreshed = sim_.now();
  if (!s.laggy_armed) {
    s.laggy_armed = true;
    s.laggy_timer =
        sim_.schedule_after(cfg_.laggy_ttl, [this, osd] { laggy_expire(osd); }, "mon.laggy");
  }
  if (s.laggy) return;
  s.laggy = true;
  counters_.add("mon.laggy_flags");
  publish();
}

void Monitor::laggy_expire(std::uint32_t osd) {
  OsdState& s = state_[osd];
  s.laggy_armed = false;
  if (closing_ || !s.laggy) return;
  const Time deadline = s.laggy_refreshed + cfg_.laggy_ttl;
  if (sim_.now() < deadline) {
    // Refreshed since the timer was armed: push the expiry out.
    s.laggy_armed = true;
    s.laggy_timer =
        sim_.schedule_at(deadline, [this, osd] { laggy_expire(osd); }, "mon.laggy");
    return;
  }
  s.laggy = false;
  laggy_reports_[osd].clear();
  counters_.add("mon.laggy_cleared");
  publish();
}

net::Message Monitor::make_delta() const {
  auto body = std::make_shared<osd::MapDeltaMsg>();
  body->epoch = cmap_.epoch();
  body->down = down_osds();
  body->out = out_osds();
  body->laggy = laggy_osds();
  net::Message m;
  m.type = osd::kMapDelta;
  m.size = delta_size(*body);
  m.body = std::move(body);
  return m;
}

void Monitor::publish() {
  cmap_.bump_epoch();
  announce();
}

void Monitor::announce() {
  counters_.add("mon.map_deltas");
  if (auto* tr = trace::Collector::active()) {
    tr->instant(trace::Span{cmap_.epoch(), trace::kMonTrack},
                tr->stage_id(stage::kMapUpdate), sim_.now());
  }
  for (const auto& [id, conn] : osd_subs_) conn->send(make_delta());
  for (net::Connection* conn : client_subs_) conn->send(make_delta());
}

std::vector<std::uint32_t> Monitor::flagged(bool OsdState::*flag) const {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 0; i < state_.size(); i++)
    if (state_[i].*flag) v.push_back(i);
  return v;
}

void Monitor::close() {
  if (closing_) return;
  closing_ = true;
  for (auto& s : state_) {
    if (s.down_out_armed) {
      sim_.cancel(s.down_out_timer);
      s.down_out_armed = false;
    }
    if (s.laggy_armed) {
      sim_.cancel(s.laggy_timer);
      s.laggy_armed = false;
    }
  }
}

}  // namespace afc::mon
