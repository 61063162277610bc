#include "mon/plane.h"

#include "client/runner.h"

namespace afc::mon {

namespace {

class OraclePlane final : public MembershipPlane {
 public:
  explicit OraclePlane(cluster::ClusterMap& cmap) : MembershipPlane(cmap) {}

  bool down(std::uint32_t osd) const override { return !cmap_.crush().osds()[osd].up; }
  sim::CoTask<std::uint64_t> on_crash(std::uint32_t osd) override { return mark(osd, false); }
  // Replay ran to completion while the daemon was still marked down, so no
  // replayed record can clobber data written during the downtime, and
  // backfill covers strictly less.
  sim::CoTask<std::uint64_t> on_restart(std::uint32_t osd) override { return mark(osd, true); }

 private:
  /// Mark `osd` up or down in CRUSH and re-home every PG that moved.
  sim::CoTask<std::uint64_t> mark(std::uint32_t osd, bool up) {
    if (down(osd) != up) co_return 0;  // a restart raced with another
    const osd::MapChange change(cmap_);
    cmap_.crush().set_up(osd, up);
    cmap_.bump_epoch();
    co_return co_await osd::apply_map_change(roster_, change, /*background=*/true);
  }
};

class DetectedPlane final : public MembershipPlane {
 public:
  DetectedPlane(sim::Simulation& sim, cluster::ClusterMap& cmap, const MembershipConfig& cfg,
                std::uint64_t seed)
      : MembershipPlane(cmap),
        cfg_(cfg),
        seed_(seed),
        node_(sim, "mon", net::Node::Config{4, 1250 * kMiB}),
        monitor_(sim, cmap, cfg),
        msgr_(sim, node_, monitor_, "mon") {
    // Liveness apart from placement: acting sets drop *down* members at
    // once (no data movement), while *out*, the placement change, waits
    // for the monitor's down_out_interval.
    cmap_.set_filter_down(true);
    monitor_.set_liveness_probe([this](std::uint32_t id) { return failed(id); });
  }

  void attach_osd(osd::Osd& o, const net::Connection::Config& net) override {
    MembershipPlane::attach_osd(o, net);
    net::Connection* conn = msgr_.connect(o.messenger(), net);
    monitor_.add_osd_subscriber(o.id(), conn);
    o.attach_membership(cfg_, conn->reverse(), roster_,
                        seed_ ^ (0x9e3779b97f4a7c15ull * (o.id() + 1)));
  }
  void attach_client(client::VmClient& vm, const net::Connection::Config& net) override {
    monitor_.add_client_subscriber(msgr_.connect(vm.messenger(), net));
    vm.set_membership();
  }
  void start() override {
    for (; started_ < roster_.size(); started_++) roster_[started_]->membership()->start();
  }

  // Detection and map surgery belong to the heartbeats and the monitor.
  bool down(std::uint32_t osd) const override { return roster_[osd]->messenger().blackholed(); }
  sim::CoTask<std::uint64_t> on_crash(std::uint32_t) override { co_return 0; }
  sim::CoTask<std::uint64_t> on_restart(std::uint32_t osd) override {
    // The boot beacon is the mark-up: the monitor bumps the epoch and
    // publishes, and the surviving primaries backfill what was missed.
    roster_[osd]->membership()->announce_boot();
    co_return 0;
  }

  Monitor* monitor() override { return &monitor_; }
  net::Messenger* messenger() override { return &msgr_; }

 private:
  void announce(const osd::MapChange& change) override {
    change.release_dropped(roster_);
    monitor_.announce();
  }

  /// Ground truth for mon.false_downs: an OSD has actually failed iff its
  /// daemon is blackholed or an injected fault sits on a link touching its
  /// messenger (partition mark-downs are correct).
  bool failed(std::uint32_t id) const {
    const net::Messenger& target = roster_[id]->messenger();
    const auto faulted = [&target](const net::Messenger& m) {
      for (const auto& c : m.connections()) {
        if ((&c->local() == &target || &c->remote() == &target) && c->fault().any()) return true;
      }
      return false;
    };
    if (target.blackholed()) return true;
    for (const osd::Osd* o : roster_) {
      if (faulted(o->messenger())) return true;
    }
    return faulted(msgr_);
  }

  MembershipConfig cfg_;
  std::uint64_t seed_;
  net::Node node_;
  Monitor monitor_;
  net::Messenger msgr_;
  std::size_t started_ = 0;
};

}  // namespace

std::unique_ptr<MembershipPlane> MembershipPlane::make(sim::Simulation& sim,
                                                       cluster::ClusterMap& cmap,
                                                       const MembershipConfig& cfg,
                                                       std::uint64_t seed) {
  if (cfg.detected()) return std::make_unique<DetectedPlane>(sim, cmap, cfg, seed);
  return std::make_unique<OraclePlane>(cmap);
}

sim::CoTask<std::uint64_t> MembershipPlane::rebalance(const osd::MapChange& change) {
  cmap_.bump_epoch();
  const std::uint64_t moved = co_await osd::apply_map_change(roster_, change, false);
  announce(change);
  co_return moved;
}

}  // namespace afc::mon
