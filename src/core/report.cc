#include "core/report.h"

#include <cstdarg>
#include <cstdio>

namespace afc::core {

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string health_report(ClusterSim& cluster) {
  std::string out;
  append(out, "=== cluster health @ t=%.3fs (%s, %zu OSDs, %zu VMs) ===\n",
         to_s(cluster.simulation().now()), cluster.config().profile.name.c_str(),
         cluster.osd_count(), cluster.vm_count());

  // Redundancy policy: the ack floor is the invariant both schemes share —
  // a write acks only once that many members hold it durably.
  auto& cm = cluster.map();
  if (cm.erasure()) {
    append(out, "pool: erasure k=%u m=%u (%u shards/stripe), pgs %u, ack floor %u\n",
           cm.ec_k(), cm.ec_m(), cm.pool_size(), cm.pool().pg_num, cm.ack_floor());
  } else {
    append(out, "pool: replicated size=%u, pgs %u, ack floor %u\n", cm.pool_size(),
           cm.pool().pg_num, cm.ack_floor());
  }

  // Membership plane (detected mode only — oracle runs print nothing here,
  // keeping their report byte-identical to the pre-membership tree).
  if (auto* mon = cluster.monitor(); mon != nullptr) {
    const auto down = mon->down_osds();
    const auto out_ids = mon->out_osds();
    const auto laggy = mon->laggy_osds();
    append(out, "membership: epoch %llu, %zu up / %zu down / %zu out, %zu laggy\n",
           (unsigned long long)cm.epoch(), cluster.osd_count() - down.size(), down.size(),
           out_ids.size(), laggy.size());
    const auto id_list = [&](const char* label, const std::vector<std::uint32_t>& ids) {
      if (ids.empty()) return;
      append(out, "  %s:", label);
      for (std::uint32_t id : ids) append(out, " osd.%u", id);
      append(out, "\n");
    };
    id_list("down", down);
    id_list("out", out_ids);
    id_list("laggy", laggy);
    append(out,
           "  reports %llu (laggy %llu) | markdowns %llu (deferred %llu, false %llu) "
           "markups %llu markouts %llu | deltas %llu\n",
           (unsigned long long)mon->counters().get("mon.failure_reports"),
           (unsigned long long)mon->counters().get("mon.laggy_reports"),
           (unsigned long long)mon->counters().get("mon.markdowns"),
           (unsigned long long)mon->counters().get("mon.markdowns_deferred"),
           (unsigned long long)mon->counters().get("mon.false_downs"),
           (unsigned long long)mon->counters().get("mon.markups"),
           (unsigned long long)mon->counters().get("mon.markouts"),
           (unsigned long long)mon->counters().get("mon.map_deltas"));
  }

  for (std::size_t n = 0; n < cluster.config().osd_nodes && n * cluster.config().osds_per_node <
                                                                cluster.osd_count();
       n++) {
    auto& node = cluster.osd_node(n);
    append(out, "node.%zu  cpu %5.1f%%  nic %5.1f%%  tx %.1f MiB\n", n,
           node.cpu().utilization() * 100.0, node.nic_utilization() * 100.0,
           double(node.tx_bytes()) / double(kMiB));
  }

  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    auto& o = cluster.osd(i);
    auto& ssd = cluster.osd_ssd(i);
    auto& db = o.omap_db();
    append(out, "osd.%-2zu dev %4.0f%%/bus %4.0f%% rlat %6.0fus wlat %6.0fus gc %llu\n", i,
           ssd.utilization() * 100.0, ssd.bus_utilization() * 100.0,
           ssd.read_latency().mean() / 1000.0, ssd.write_latency().mean() / 1000.0,
           (unsigned long long)ssd.gc_stalls());
    append(out,
           "       ops w=%llu r=%llu rep=%llu | pglock wait %.1fms cont %llu | defers %llu\n",
           (unsigned long long)o.client_writes(), (unsigned long long)o.client_reads(),
           (unsigned long long)o.replica_ops(), to_ms(o.pg_lock_wait_ns()),
           (unsigned long long)o.pg_lock_contended(), (unsigned long long)o.pending_defers());
    append(out,
           "       journal: %llu entries, batch x%.1f, in-use %.1f MiB, full-stall %.1fms\n",
           (unsigned long long)o.journal().entries_written(), o.journal().average_batch(),
           double(o.journal().bytes_in_use()) / double(kMiB), to_ms(o.journal().full_stall_ns()));
    append(out,
           "       throttles: msgs %llu/%llu  fs_ops %llu/%llu (wait %.1fms)\n",
           (unsigned long long)o.throttles().messages.in_use(),
           (unsigned long long)o.throttles().messages.capacity(),
           (unsigned long long)o.throttles().filestore_ops.in_use(),
           (unsigned long long)o.throttles().filestore_ops.capacity(),
           to_ms(o.throttles().filestore_ops.total_wait_ns()));
    append(out,
           "       filestore: %llu applies, %llu syscalls, %llu metaRd, dirty %.1f MiB, "
           "wb-stalls %llu\n",
           (unsigned long long)o.store().applies(), (unsigned long long)o.store().syscalls(),
           (unsigned long long)o.store().metadata_device_reads(),
           double(o.store().dirty_bytes()) / double(kMiB),
           (unsigned long long)o.store().writeback_stalls());
    append(out,
           "       kv: %zu tables (L0=%d), WA %.2f, flushes %llu, compactions %llu, "
           "slowdowns %llu | cache h/m %llu/%llu\n",
           db.table_count(), db.l0_files(), db.write_amplification(),
           (unsigned long long)db.flushes(), (unsigned long long)db.compactions(),
           (unsigned long long)db.stall_slowdowns(),
           (unsigned long long)db.block_cache_hits(), (unsigned long long)db.block_cache_misses());
    append(out, "       dout: emitted %llu written %llu dropped %llu | meta-cache h/m %llu/%llu\n",
           (unsigned long long)o.dlog().emitted(), (unsigned long long)o.dlog().written(),
           (unsigned long long)o.dlog().dropped(), (unsigned long long)o.meta_cache().hits(),
           (unsigned long long)o.meta_cache().misses());
    const net::NetStats net = o.messenger().net_stats();
    append(out,
           "       msgr: in %llu | out %llu msgs / %llu frames (occ %.2f, batches %llu, "
           "max %llu) | drops %llu resends %llu",
           (unsigned long long)o.messenger().delivered(), (unsigned long long)net.messages,
           (unsigned long long)net.frames, net.batch_occupancy(),
           (unsigned long long)net.batches, (unsigned long long)net.max_batch,
           (unsigned long long)net.dropped_frames, (unsigned long long)net.frame_resends);
    if (net.shard_wakeups > 0) {
      append(out, " | shards: wakeups %llu frames %llu depth-hwm %zu",
             (unsigned long long)net.shard_wakeups, (unsigned long long)net.shard_frames,
             net.shard_depth_hwm);
    }
    append(out, "\n");
    // Degraded-durability evidence, both schemes; printed only when
    // something actually happened so healthy replicated reports are
    // byte-identical to the seed's.
    const std::uint64_t below = o.counters().get("osd.acks_below_min_size");
    const std::uint64_t degraded = o.counters().get("osd.acks_degraded");
    const std::uint64_t dec = o.counters().get("osd.ec_reconstruct_reads");
    const std::uint64_t reb = o.counters().get("osd.ec_shards_rebuilt");
    const std::uint64_t pmm = o.counters().get("osd.ec_parity_mismatch");
    if (below + degraded + dec + reb + pmm > 0) {
      append(out,
             "       redundancy: below-floor %llu degraded-acks %llu | ec decode-reads %llu "
             "shards-rebuilt %llu parity-mismatch %llu\n",
             (unsigned long long)below, (unsigned long long)degraded, (unsigned long long)dec,
             (unsigned long long)reb, (unsigned long long)pmm);
    }
    // Heartbeat / fencing evidence — nonzero only in detected mode.
    const std::uint64_t hbs = o.counters().get("osd.hb_sent");
    if (hbs > 0) {
      append(out,
             "       hb: sent %llu timeouts %llu recoveries %llu | fenced cli %llu rep %llu | "
             "epoch %llu\n",
             (unsigned long long)hbs, (unsigned long long)o.counters().get("osd.hb_timeouts"),
             (unsigned long long)o.counters().get("osd.hb_recoveries"),
             (unsigned long long)o.counters().get("osd.fenced_ops"),
             (unsigned long long)o.counters().get("osd.fenced_rep_ops"),
             (unsigned long long)o.membership()->known_epoch());
    }
  }
  return out;
}

std::string health_summary(ClusterSim& cluster) {
  std::string out;
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    auto& o = cluster.osd(i);
    append(out, "osd.%-2zu dev %3.0f%% lockwait %7.1fms defers %6llu metaRd %6llu jfull %5.0fms\n",
           i, cluster.osd_ssd(i).utilization() * 100.0, to_ms(o.pg_lock_wait_ns()),
           (unsigned long long)o.pending_defers(),
           (unsigned long long)o.store().metadata_device_reads(),
           to_ms(o.journal().full_stall_ns()));
  }
  return out;
}

}  // namespace afc::core
