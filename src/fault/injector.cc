#include "fault/injector.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/stage_names.h"
#include "core/trace.h"
#include "ec/layout.h"
#include "osd/recovery.h"

namespace afc::fault {

FaultInjector::FaultInjector(sim::Simulation& sim, cluster::ClusterMap& cmap,
                             std::vector<osd::Osd*> osds, std::vector<dev::SsdModel*> ssds,
                             std::vector<net::Messenger*> endpoints, std::uint64_t seed)
    : sim_(sim),
      cmap_(cmap),
      osds_(std::move(osds)),
      ssds_(std::move(ssds)),
      endpoints_(std::move(endpoints)),
      seed_(seed) {}

void FaultInjector::install(const FaultPlan& plan) {
  if (installed_) return;
  installed_ = true;
  plan_ = plan;
  for (std::size_t i = 0; i < plan_.events.size(); i++) {
    const FaultEvent& e = plan_.events[i];
    sim_.schedule_at(e.at, [this, i] { apply(i); }, "fault.apply");
    const bool auto_clears = e.kind == FaultKind::kSsdSlow || e.kind == FaultKind::kLinkDrop ||
                             e.kind == FaultKind::kLinkDelay ||
                             e.kind == FaultKind::kLinkPartition;
    if (auto_clears && e.duration > 0) {
      sim_.schedule_at(e.at + e.duration, [this, i] { clear(i); }, "fault.clear");
    }
  }
}

void FaultInjector::trace_event(std::size_t idx) {
  if (auto* tr = trace::Collector::active()) {
    tr->instant(trace::Span{std::uint64_t(idx) + 1, trace::kFaultTrack},
                tr->stage_id(stage::kFaultInject), sim_.now());
  }
}

void FaultInjector::apply(std::size_t idx) {
  const FaultEvent& e = plan_.events[idx];
  if (e.osd >= osds_.size()) return;
  counters_.add(std::string("fault.") + kind_name(e.kind));
  trace_event(idx);
  switch (e.kind) {
    case FaultKind::kOsdCrash:
      do_crash(e.osd);
      break;
    case FaultKind::kOsdRestart:
      do_restart(e.osd);
      break;
    case FaultKind::kSsdSlow:
      ssds_[e.osd]->set_slow_factor(e.factor);
      break;
    case FaultKind::kLinkDrop: {
      net::Connection::Fault f;
      f.drop_p = e.p;
      set_link_fault(e.osd, e.peer, f);
      break;
    }
    case FaultKind::kLinkDelay: {
      net::Connection::Fault f;
      f.added_delay = e.added_ns;
      set_link_fault(e.osd, e.peer, f);
      break;
    }
    case FaultKind::kLinkPartition: {
      net::Connection::Fault f;
      f.partitioned = true;
      set_link_fault(e.osd, e.peer, f);
      break;
    }
    case FaultKind::kJournalStall:
      osds_[e.osd]->journal().stall_until(sim_.now() + e.duration);
      break;
    case FaultKind::kBitFlip: {
      // Seeded per event so two flips in one plan pick independent victims.
      const std::uint64_t s = seed_ ^ (0x9e3779b97f4a7c15ull * (idx + 1));
      bool hit;
      if (e.media == 1) {
        hit = osds_[e.osd]->journal().corrupt_record(s);
      } else {
        hit = corrupt_audited_copy(e.osd, s, /*parity=*/e.media == 2);
      }
      if (!hit) counters_.add("fault.bit_flip_noop");
      break;
    }
    case FaultKind::kTornWrite: {
      const std::uint64_t s = seed_ ^ (0x9e3779b97f4a7c15ull * (idx + 1));
      const std::size_t torn = osds_[e.osd]->journal().inject_torn_write(s);
      if (torn > 0) counters_.add("fault.torn_entries", torn);
      // The tear is the last thing the daemon does: it dies mid-persist.
      do_crash(e.osd);
      break;
    }
  }
}

void FaultInjector::clear(std::size_t idx) {
  const FaultEvent& e = plan_.events[idx];
  if (e.osd >= osds_.size()) return;
  counters_.add("fault.cleared");
  switch (e.kind) {
    case FaultKind::kSsdSlow:
      ssds_[e.osd]->set_slow_factor(1.0);
      break;
    case FaultKind::kLinkDrop:
    case FaultKind::kLinkDelay:
    case FaultKind::kLinkPartition:
      set_link_fault(e.osd, e.peer, net::Connection::Fault{});
      break;
    default:
      break;
  }
}

bool FaultInjector::corrupt_audited_copy(std::uint32_t osd, std::uint64_t seed, bool parity) {
  // Flip a byte in a copy the scrub will actually audit: an object of a PG
  // this OSD currently serves (with `parity`, a shard the acting set maps
  // to this OSD at a parity position). Stale copies left behind by old
  // backfills are resident too, but no acting set references them, so
  // corrupting one would be invisible to every detector the model has.
  if (parity && !cmap_.erasure()) return false;
  std::vector<fs::ObjectId> oids;
  for (std::uint32_t pg = 0; pg < cmap_.pool().pg_num; pg++) {
    const auto& acting = cmap_.acting(pg);
    if (!parity && std::find(acting.begin(), acting.end(), osd) == acting.end()) continue;
    for (auto& oid : osds_[osd]->store().objects_in_pg(pg)) {
      if (parity) {
        const auto sn = ec::parse_shard(oid.name());
        if (!sn.has_value() || sn->shard < cmap_.ec_k() || sn->shard >= acting.size() ||
            acting[sn->shard] != osd) {
          continue;
        }
      }
      oids.push_back(std::move(oid));
    }
  }
  if (oids.empty()) return false;
  std::sort(oids.begin(), oids.end());  // seeded pick independent of hash order
  Rng rng(seed ^ 0xB17F11Dull);
  // Linear probe from a seeded start: corrupt_object() refuses objects with
  // no resident extent data.
  const std::size_t start = rng.uniform_int(0, oids.size() - 1);
  for (std::size_t i = 0; i < oids.size(); i++) {
    if (osds_[osd]->store().corrupt_object(oids[(start + i) % oids.size()])) return true;
  }
  return false;
}

void FaultInjector::set_link_fault(std::uint32_t osd, std::uint32_t peer,
                                   const net::Connection::Fault& f) {
  net::Messenger* a = &osds_[osd]->messenger();
  net::Messenger* b = nullptr;
  if (peer == kMonPeer) {
    if (mon_ == nullptr) return;
    b = mon_;
  } else if (peer != kAllPeers) {
    if (peer >= osds_.size()) return;
    b = &osds_[peer]->messenger();
  }
  std::uint64_t n = 0;
  for (net::Messenger* m : endpoints_) {
    for (const auto& conn : m->connections()) {
      net::Connection* c = conn.get();
      const bool touches_a = &c->local() == a || &c->remote() == a;
      if (!touches_a) continue;
      if (b != nullptr && &c->local() != b && &c->remote() != b) continue;
      if (f.any()) {
        // One deterministic drop stream per (plan seed, connection index).
        c->set_fault(f, seed_ ^ (0x9e3779b97f4a7c15ull * (n + 1)));
      } else {
        c->clear_fault();
      }
      n++;
    }
  }
}

void FaultInjector::do_crash(std::uint32_t osd) {
  if (detected_) {
    // Purely physical: the daemon dies — messenger blackholed, volatile
    // state dropped. No CRUSH flip, no epoch bump, no retarget: peers must
    // *notice* via heartbeats and the monitor must arbitrate the mark-down.
    if (osds_[osd]->messenger().blackholed()) return;  // already dead
    osds_[osd]->messenger().set_blackhole(true);
    osds_[osd]->on_crash();
    return;
  }
  if (!cmap_.crush().osds()[osd].up) return;  // already down
  const osd::MapChange change(cmap_);
  osds_[osd]->messenger().set_blackhole(true);
  osds_[osd]->on_crash();
  cmap_.crush().set_up(osd, false);
  cmap_.bump_epoch();
  retarget_pgs(change);
}

void FaultInjector::do_restart(std::uint32_t osd) {
  if (detected_) {
    if (!osds_[osd]->messenger().blackholed()) return;  // never crashed
    if (osd < ssds_.size()) ssds_[osd]->note_daemon_restart();
    sim::spawn_fn([this, osd]() -> sim::CoTask<void> {
      // Replay first, exactly like the oracle path; then the boot beacon is
      // the detected-mode mark-up — the monitor bumps the epoch, publishes,
      // and the surviving primaries backfill what the daemon missed.
      co_await osds_[osd]->on_restart();
      osds_[osd]->messenger().set_blackhole(false);
      osds_[osd]->membership()->announce_boot();
    });
    return;
  }
  if (cmap_.crush().osds()[osd].up) return;  // never crashed / already back
  // The FTL idled through the downtime and caught up on deferred erase
  // work; the fresh daemon does not inherit the dead one's GC debt. (Wear
  // counters — gc_stalls, clean budget — survive: they are media state.)
  if (osd < ssds_.size()) ssds_[osd]->note_daemon_restart();
  sim::spawn_fn([this, osd]() -> sim::CoTask<void> {
    // Journal replay runs to completion while the daemon is still down
    // (marked out, blackholed): locally durable writes come back from the
    // ring before any client op or backfill push can land, so a replayed
    // record can never clobber data written during the downtime — and
    // backfill then covers strictly less.
    co_await osds_[osd]->on_restart();
    if (cmap_.crush().osds()[osd].up) co_return;  // raced with another restart
    const osd::MapChange change(cmap_);
    osds_[osd]->messenger().set_blackhole(false);
    cmap_.crush().set_up(osd, true);
    cmap_.bump_epoch();
    retarget_pgs(change);
  });
}

void FaultInjector::retarget_pgs(const osd::MapChange& change) {
  for (const osd::PgRemap& r : change.remaps(osds_.front()->pg_backend())) {
    osd::install_remap(osds_, r);
    // Asynchronous recovery: the data path keeps running while the PG
    // re-replicates (Ceph recovers in the background too).
    for (unsigned pos : r.targets) {
      counters_.add(r.decode ? "fault.ec_rebuilds" : "fault.backfills");
      sim::spawn_fn([this, r, pos]() -> sim::CoTask<void> {
        co_await osd::recover_target(osds_, r, pos);
      });
    }
  }
}

}  // namespace afc::fault
