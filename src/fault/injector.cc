#include "fault/injector.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/stage_names.h"
#include "core/trace.h"
#include "ec/layout.h"

namespace afc::fault {

FaultInjector::FaultInjector(sim::Simulation& sim, cluster::ClusterMap& cmap,
                             mon::MembershipPlane& plane, std::vector<dev::SsdModel*> ssds,
                             std::vector<net::Messenger*> endpoints, std::uint64_t seed)
    : sim_(sim),
      cmap_(cmap),
      plane_(plane),
      osds_(plane.roster()),
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

void FaultInjector::attach_osd(dev::SsdModel& ssd, net::Messenger& messenger) {
  ssds_.push_back(&ssd);
  endpoints_.push_back(&messenger);
}

void FaultInjector::apply(std::size_t idx) {
  const FaultEvent& e = plan_.events[idx];
  if (e.osd >= osds_.size()) return;
  counters_.add(std::string("fault.") + kind_name(e.kind));
  if (auto* tr = trace::Collector::active()) {
    tr->instant(trace::Span{std::uint64_t(idx) + 1, trace::kFaultTrack},
                tr->stage_id(stage::kFaultInject), sim_.now());
  }
  // Seeded per event so two flips or tears in one plan pick independently.
  const std::uint64_t s = seed_ ^ (0x9e3779b97f4a7c15ull * (idx + 1));
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
    case FaultKind::kLinkDrop:
    case FaultKind::kLinkDelay:
    case FaultKind::kLinkPartition: {
      net::Connection::Fault f;
      if (e.kind == FaultKind::kLinkDrop) f.drop_p = e.p;
      if (e.kind == FaultKind::kLinkDelay) f.added_delay = e.added_ns;
      f.partitioned = e.kind == FaultKind::kLinkPartition;
      set_link_fault(e.osd, e.peer, f);
      break;
    }
    case FaultKind::kJournalStall:
      osds_[e.osd]->journal().stall_until(sim_.now() + e.duration);
      break;
    case FaultKind::kBitFlip: {
      const bool hit = e.media == 1 ? osds_[e.osd]->journal().corrupt_record(s)
                                    : corrupt_audited_copy(e.osd, s, /*parity=*/e.media == 2);
      if (!hit) counters_.add("fault.bit_flip_noop");
      break;
    }
    case FaultKind::kTornWrite: {
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
    b = plane_.messenger();
    if (b == nullptr) return;
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
  if (plane_.down(osd)) return;  // already dead
  osds_[osd]->messenger().set_blackhole(true);
  osds_[osd]->on_crash();
  // The plane's crash handling completes without suspending.
  sim::spawn_fn([this, osd]() -> sim::CoTask<void> {
    count_recoveries(co_await plane_.on_crash(osd));
  });
}

void FaultInjector::do_restart(std::uint32_t osd) {
  if (!plane_.down(osd)) return;  // never crashed / already back
  // The FTL idled through the downtime and caught up on deferred erase
  // work; the fresh daemon does not inherit the dead one's GC debt. (Wear
  // counters — gc_stalls, clean budget — survive: they are media state.)
  if (osd < ssds_.size()) ssds_[osd]->note_daemon_restart();
  sim::spawn_fn([this, osd]() -> sim::CoTask<void> {
    // Journal replay runs to completion while the daemon is still down
    // and blackholed: no client op or backfill push can land before every
    // locally durable write is back.
    co_await osds_[osd]->on_restart();
    osds_[osd]->messenger().set_blackhole(false);
    count_recoveries(co_await plane_.on_restart(osd));
  });
}

void FaultInjector::count_recoveries(std::uint64_t n) {
  if (n > 0) counters_.add(cmap_.erasure() ? "fault.ec_rebuilds" : "fault.backfills", n);
}

}  // namespace afc::fault
