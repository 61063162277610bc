// Chaos soak: drive a write-heavy workload through a small cluster while a
// seeded FaultPlan crashes/restarts OSDs, slows SSDs, drops/delays/partitions
// links, tears and flips journal records and flips data extents — then
// assert the recovery invariants. Every leg runs on every cell of the mode
// matrix {file, flash} store × {oracle, detected} membership (the
// membership leg is detected by definition: {file, flash} only):
//
//   1. exactly-once resolution: every op a client began resolved exactly
//      once (acked ok or failed), and no client has a dangling pending op
//      after the simulation drains;
//   2. durability floor: no write was acked with fewer than min_size
//      durable replicas (osd.acks_below_min_size == 0 on every OSD);
//   3. determinism: the same seed + plan produces an identical run digest
//      (event count, per-VM accounting, per-OSD counters) twice in a row;
//   4. zero-impact: installing an *empty* plan changes nothing — the run
//      digest equals a run with no injector at all;
//   5. scrub converges: where a leg scrubs, a repair pass covers every
//      inconsistency and a re-scrub comes back clean.
//
// Usage: chaos [--leg=<empty|directed|corruption|ec|membership|random>]
//              [--store=<file|flash>] [--membership=<oracle|detected>]
// An absent filter means all values; each cell's mode comes from its own
// ClusterConfig, never from the environment.
// Exit status is 0 on success, 1 if any invariant fails (scripts/check.sh
// and its ASan+UBSan leg gate on it), 2 on a usage error.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "afceph.h"

using namespace afc;

namespace {

/// One cell of the mode matrix.
struct Mode {
  store::Backend store = store::Backend::kFile;
  mon::MembershipMode membership = mon::MembershipMode::kOracle;
};

const char* membership_name(mon::MembershipMode m) {
  return m == mon::MembershipMode::kDetected ? "detected" : "oracle";
}

std::string cell_name(const Mode& m) {
  return std::string(store::backend_name(m.store)) + "/" + membership_name(m.membership);
}

/// What a leg varies on top of the mode.
struct LegOptions {
  bool install = true;          // arm the plan (false: no injector at all)
  bool ec = false;              // 8 OSDs, EC(4+2) pool, small images
  double write_fraction = 1.0;  // the rest are reads
  bool verify = false;          // reads check every acked write's pattern
  bool scrub = false;           // detect / repair / re-verify after the drain
  Time laggy_op_age = 0;        // detected mode's self-laggy bound (0: default)
};

core::ClusterConfig chaos_config(const Mode& mode, std::uint64_t seed, const LegOptions& opt) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 4;
  cfg.osds_per_node = 1;
  cfg.client_nodes = 2;
  cfg.vms = 4;
  cfg.pg_num = 64;
  cfg.replication = 2;
  cfg.min_size = 1;                         // degraded acks allowed at 1 copy
  cfg.sustained = false;                    // small run; keep devices fast
  cfg.image_size = 1 * kGiB;
  cfg.osd.rep_timeout = 40 * kMillisecond;  // replication watchdog on
  cfg.osd.rep_retries = 2;
  cfg.client_op_timeout = 250 * kMillisecond;  // client retry/resubmit on
  cfg.client_op_retries = 4;
  cfg.seed = seed;
  cfg.store_backend = mode.store;
  cfg.membership.mode = mode.membership;
  if (opt.laggy_op_age > 0) cfg.membership.laggy_op_age = opt.laggy_op_age;
  if (opt.ec) {
    cfg.osd_nodes = 8;
    cfg.ec_pool = true;
    cfg.ec_k = 4;
    cfg.ec_m = 2;
    cfg.min_size = 0;            // EC default floor: k+1 durable shards
    cfg.image_size = 32 * kMiB;  // small images: reads re-hit written blocks
  }
  return cfg;
}

/// Everything one run observes. Two runs of a cell with the same seed and
/// plan must agree on every field.
struct Digest {
  // Workload and write path.
  std::uint64_t events = 0;
  std::uint64_t begun = 0;
  std::uint64_t resolved = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t pending = 0;
  std::uint64_t below_min = 0;
  std::uint64_t degraded = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t rep_retry_rounds = 0;
  std::uint64_t dup_rep_replies = 0;
  std::uint64_t osd_writes = 0;
  std::uint64_t verify_failures = 0;  // acked writes read back wrong
  std::uint64_t hash = 0;             // FNV-1a over VM and OSD counters
  // Store and journal.
  std::uint64_t deferred_writes = 0;   // FlashStore: payloads that rode the WAL
  std::uint64_t torn_entries = 0;      // injector: entries lost or torn
  std::uint64_t replayed = 0;          // records re-applied from local rings
  std::uint64_t torn_tails = 0;        // replay scans stopped at a torn record
  std::uint64_t crc_failures = 0;      // replay scans stopped at a flipped record
  std::uint64_t backfill_skipped = 0;  // objects replay made backfill skip
  // Erasure coding.
  std::uint64_t reconstruct_reads = 0;
  std::uint64_t shards_rebuilt = 0;
  std::uint64_t parity_mismatch = 0;  // read after the scrub
  // Membership (detected mode; all zero under oracle).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> markdowns;  // (osd, at)
  std::vector<std::pair<std::uint32_t, std::uint64_t>> markups;
  std::uint64_t markouts = 0;
  std::uint64_t false_downs = 0;
  std::uint64_t map_deltas = 0;
  std::uint64_t failure_reports = 0;
  std::uint64_t laggy_flags = 0;
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_timeouts = 0;
  std::uint64_t fenced_ops = 0;          // stale client ops rejected at OSDs
  std::uint64_t fenced_rep_ops = 0;      // stale rep-ops rejected at replicas
  std::uint64_t fenced_replies = 0;      // fence rejections clients saw
  std::uint64_t client_map_updates = 0;
  std::uint64_t rep_unresolved = 0;      // degraded-ack gating: silent peer -> fail
  // Deep scrub after the drain (LegOptions::scrub).
  bool scrub_done = false;
  std::uint64_t detect_inconsistent = 0;
  std::uint64_t detect_missing = 0;
  std::uint64_t repaired = 0;
  std::uint64_t verify_inconsistent = 0;
  std::uint64_t verify_missing = 0;

  bool operator==(const Digest&) const = default;
};

/// Read every observable off a drained cluster.
Digest collect_digest(core::ClusterSim& cluster, fault::FaultInjector* inj,
                      const client::RunStats& stats) {
  Digest d;
  d.events = cluster.simulation().executed_events();
  d.verify_failures = stats.verify_failures;
  if (inj != nullptr) d.torn_entries = inj->counters().get("fault.torn_entries");
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    auto& vm = cluster.vm(v);
    d.begun += vm.ops_begun();
    d.resolved += vm.ops_resolved();
    d.failed += vm.ops_failed();
    d.retries += vm.op_retries();
    d.pending += vm.pending_size();
    d.fenced_replies += vm.fenced_replies();
    d.client_map_updates += vm.map_updates();
    mix(vm.ops_begun());
    mix(vm.ops_resolved());
    mix(vm.issued());
    mix(vm.completed());
  }
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    auto& osd = cluster.osd(o);
    const Counters& c = osd.counters();
    d.below_min += c.get("osd.acks_below_min_size");
    d.degraded += c.get("osd.acks_degraded");
    d.write_failures += c.get("osd.write_failures");
    d.rep_retry_rounds += c.get("osd.rep_retry_rounds");
    d.dup_rep_replies += c.get("osd.dup_rep_replies");
    d.osd_writes += osd.client_writes();
    if (const auto* flash = dynamic_cast<const store::FlashStore*>(&osd.store())) {
      d.deferred_writes += flash->deferred_writes();
    }
    d.replayed += c.get("osd.journal.records_replayed");
    d.torn_tails += c.get("osd.journal.torn_tails");
    d.crc_failures += c.get("osd.journal.crc_failures");
    d.backfill_skipped += c.get("osd.backfill_skipped");
    d.reconstruct_reads += c.get("osd.ec_reconstruct_reads");
    d.shards_rebuilt += c.get("osd.ec_shards_rebuilt");
    d.hb_sent += c.get("osd.hb_sent");
    d.hb_timeouts += c.get("osd.hb_timeouts");
    d.fenced_ops += c.get("osd.fenced_ops");
    d.fenced_rep_ops += c.get("osd.fenced_rep_ops");
    d.rep_unresolved += c.get("osd.rep_unresolved_failures");
    mix(osd.client_writes());
    mix(osd.replica_ops());
    for (const auto& [name, value] : c.all()) {
      for (char ch : name) mix(std::uint64_t(std::uint8_t(ch)));
      mix(value);
    }
  }
  if (const mon::Monitor* mon = cluster.monitor(); mon != nullptr) {
    for (const auto& e : mon->markdowns()) d.markdowns.emplace_back(e.osd, e.at);
    for (const auto& e : mon->markups()) d.markups.emplace_back(e.osd, e.at);
    d.markouts = mon->counters().get("mon.markouts");
    d.false_downs = mon->counters().get("mon.false_downs");
    d.map_deltas = mon->counters().get("mon.map_deltas");
    d.failure_reports = mon->counters().get("mon.failure_reports");
    d.laggy_flags = mon->counters().get("mon.laggy_flags");
  }
  mix(d.events);
  d.hash = h;
  return d;
}

/// One soak run of a cell: build a fresh cluster in `mode`, arm `plan`,
/// drive 4K random I/O from every VM for 100 ms warmup + 900 ms, and run
/// the simulation dry — every in-flight op, retry, backoff, backfill and
/// plan event resolves; heartbeat ticks are daemon events and do not hold
/// the run open. The digest is read there, before the optional scrub, so
/// the scrub cannot perturb it.
Digest run_leg(const Mode& mode, std::uint64_t seed, const fault::FaultPlan& plan,
               const LegOptions& opt) {
  core::ClusterSim cluster(chaos_config(mode, seed, opt));
  fault::FaultInjector* inj = opt.install ? &cluster.install_faults(plan) : nullptr;

  // VMs are started directly instead of via ClusterSim::run(): the stats
  // sink must outlive the drain, where io_loops record their final ops.
  client::RunStats stats;
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = opt.write_fraction;
  spec.verify = opt.verify;
  spec.warmup = 100 * kMillisecond;
  spec.runtime = 900 * kMillisecond;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run();
  Digest d = collect_digest(cluster, inj, stats);

  if (opt.scrub) {
    sim::spawn_fn([&cluster, &d]() -> sim::CoTask<void> {
      const auto detect = co_await cluster.deep_scrub(/*repair=*/false);
      d.detect_inconsistent = detect.inconsistent;
      d.detect_missing = detect.missing;
      const auto repair = co_await cluster.deep_scrub(/*repair=*/true);
      d.repaired = repair.repaired;
      const auto verify = co_await cluster.deep_scrub(/*repair=*/false);
      d.verify_inconsistent = verify.inconsistent;
      d.verify_missing = verify.missing;
      d.scrub_done = true;
    });
    cluster.simulation().run();
  }
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    d.parity_mismatch += cluster.osd(o).counters().get("osd.ec_parity_mismatch");
  }

  // Stop the heartbeat plane and unpark the worker coroutines so nothing is
  // left allocated at exit (keeps the LeakSanitizer leg of check.sh clean).
  cluster.close_all();
  cluster.simulation().run();
  return d;
}

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("  FAIL: %s\n", what.c_str());
    g_failures++;
  }
}

/// The invariants every run of every cell must hold.
void check_invariants(const std::string& label, const Mode& mode, const LegOptions& opt,
                      const Digest& d) {
  expect(d.pending == 0, label + ": pending ops after drain");
  expect(d.begun == d.resolved, label + ": ops begun != ops resolved");
  expect(d.below_min == 0, label + ": write acked below min_size");
  expect(d.begun > 0, label + ": no ops ran");
  if (mode.store == store::Backend::kFlash) {
    expect(d.deferred_writes > 0, label + ": 4K writes must ride the deferred-write WAL");
  }
  if (opt.scrub) {
    expect(d.scrub_done, label + ": scrub pass did not finish");
    expect(d.repaired >= d.detect_inconsistent,
           label + ": repair must cover every inconsistency");
    expect(d.verify_inconsistent == 0 && d.verify_missing == 0,
           label + ": re-scrub after repair must be clean");
  }
}

/// Run a cell twice with the same seed and plan: the first run must hold
/// the invariants, and the second must reproduce its digest exactly.
Digest run_twice(const std::string& label, const Mode& mode, std::uint64_t seed,
                 const fault::FaultPlan& plan, const LegOptions& opt = {}) {
  const Digest a = run_leg(mode, seed, plan, opt);
  const Digest b = run_leg(mode, seed, plan, opt);
  check_invariants(label, mode, opt, a);
  expect(a == b, label + ": same seed must reproduce byte-identical digests");
  return a;
}

unsigned long long u(std::uint64_t v) { return v; }

void print_scrub(const Digest& d) {
  std::printf("  scrub: inconsistent=%llu repaired=%llu after-repair inconsistent=%llu "
              "missing=%llu\n",
              u(d.detect_inconsistent), u(d.repaired), u(d.verify_inconsistent),
              u(d.verify_missing));
}

// --- the legs -----------------------------------------------------------

/// Zero impact: an empty plan must equal no injector at all.
void leg_empty(const Mode& mode) {
  const std::string label = "empty " + cell_name(mode);
  LegOptions bare_opt;
  bare_opt.install = false;
  const Digest bare = run_leg(mode, 42, fault::FaultPlan{}, bare_opt);
  const Digest empty = run_leg(mode, 42, fault::FaultPlan{}, {});
  std::printf("\n[empty plan %s] events=%llu begun=%llu  (bare events=%llu)\n",
              cell_name(mode).c_str(), u(empty.events), u(empty.begun), u(bare.events));
  expect(bare == empty, label + ": empty FaultPlan must not perturb the run");
  check_invariants(label, mode, {}, empty);
}

/// A directed plan hitting every network, device and daemon fault kind.
void leg_directed(const Mode& mode) {
  fault::FaultPlan plan;
  plan.crash_restart(300 * kMillisecond, 1, 200 * kMillisecond);
  plan.ssd_slow(250 * kMillisecond, 2, 8.0, 300 * kMillisecond);
  plan.link_drop(200 * kMillisecond, 0, 3, 0.3, 400 * kMillisecond);
  plan.link_delay(350 * kMillisecond, 2, 3, 900 * kMicrosecond, 250 * kMillisecond);
  plan.link_partition(500 * kMillisecond, 3, fault::kAllPeers, 150 * kMillisecond);
  plan.journal_stall(450 * kMillisecond, 0, 60 * kMillisecond);
  std::printf("\n[directed plan %s]\n%s", cell_name(mode).c_str(), plan.describe().c_str());
  const Digest a = run_twice("directed " + cell_name(mode), mode, 42, plan);
  std::printf("  events=%llu begun=%llu failed=%llu retries=%llu degraded=%llu "
              "rep_retry_rounds=%llu dups=%llu\n",
              u(a.events), u(a.begun), u(a.failed), u(a.retries), u(a.degraded),
              u(a.rep_retry_rounds), u(a.dup_rep_replies));
}

/// Corruption: tear osd 1's journal mid-stall (replay on restart), tear
/// osd 2's and flip a retained record while it is down (replay stops at the
/// bad CRC), then flip data extents on osds 2 and 3 after the drain and let
/// deep scrub find and repair them. On flash the rings are FlashStore's
/// deferred-write WAL.
void leg_corruption(const Mode& mode) {
  fault::FaultPlan plan;
  // Incident A: stall builds a journal backlog on osd 1, the tear kills the
  // daemon mid-persist, restart replays the surviving prefix.
  plan.journal_stall(300 * kMillisecond, 1, 60 * kMillisecond);
  plan.torn_write(330 * kMillisecond, 1);
  plan.restart(450 * kMillisecond, 1);
  // Incident B: same tear on osd 2, plus a bit flip in a retained record
  // while the daemon is down — replay must stop at the bad CRC.
  plan.journal_stall(600 * kMillisecond, 2, 60 * kMillisecond);
  plan.torn_write(630 * kMillisecond, 2);
  plan.bit_flip_journal(700 * kMillisecond, 2);
  plan.restart(750 * kMillisecond, 2);
  // Incident C: silent data corruption, injected after every op has
  // resolved (the events fire during the drain) so nothing overwrites it
  // before the scrub runs.
  plan.bit_flip_data(2 * kSecond, 2);
  plan.bit_flip_data(2 * kSecond, 3);
  LegOptions opt;
  opt.scrub = true;
  const std::string label = "corruption " + cell_name(mode);
  std::printf("\n[corruption plan %s]\n", cell_name(mode).c_str());
  const Digest a = run_twice(label, mode, 42, plan, opt);
  std::printf("  deferred_writes=%llu torn_entries=%llu replayed=%llu torn_tails=%llu "
              "crc_failures=%llu backfill_skipped=%llu\n",
              u(a.deferred_writes), u(a.torn_entries), u(a.replayed), u(a.torn_tails),
              u(a.crc_failures), u(a.backfill_skipped));
  print_scrub(a);
  // Replay: both tears found queued batches; restarts re-applied the
  // surviving prefixes from the local rings, so backfill skipped objects
  // replay had already recovered (it covered strictly less).
  expect(a.torn_entries > 0, label + ": tears must hit queued journal entries");
  expect(a.replayed > 0, label + ": restart must replay locally durable records");
  expect(a.torn_tails > 0, label + ": replay must stop at a torn tail");
  expect(a.crc_failures > 0, label + ": replay must stop at the flipped record");
  expect(a.backfill_skipped > 0, label + ": replay must let backfill skip recovered objects");
  expect(a.detect_inconsistent >= 2, label + ": scrub must detect both bit flips");
}

/// EC(4+2) soak: 8 OSDs, 6-wide stripes, mixed 70/30 write/read traffic.
/// The plan walks the whole EC fault surface in disjoint windows: a crash
/// mid-stripe (journal replay + rebuild-by-decode on return), a torn shard
/// write, a partition making m=2 OSDs unreachable (degraded reads decode
/// around them; writes ride the shard watchdog), an overlapping two-shard
/// loss (reads still served from exactly k survivors), and a parity-shard
/// bit flip after the drain for the scrub to find.
void leg_ec(const Mode& mode) {
  fault::FaultPlan plan;
  plan.crash_restart(300 * kMillisecond, 1, 150 * kMillisecond);
  plan.torn_write(500 * kMillisecond, 3);
  plan.restart(650 * kMillisecond, 3);
  plan.link_partition(700 * kMillisecond, 4, fault::kAllPeers, 120 * kMillisecond);
  plan.link_partition(700 * kMillisecond, 5, fault::kAllPeers, 120 * kMillisecond);
  plan.crash_restart(950 * kMillisecond, 6, 120 * kMillisecond);
  plan.crash_restart(950 * kMillisecond, 7, 120 * kMillisecond);
  plan.bit_flip_parity(2 * kSecond, 2);
  LegOptions opt;
  opt.ec = true;
  opt.write_fraction = 0.7;
  opt.scrub = true;
  const std::string label = "ec " + cell_name(mode);
  std::printf("\n[ec plan %s] 8 OSDs EC(4+2), 70/30 write/read\n", cell_name(mode).c_str());
  const Digest a = run_twice(label, mode, 42, plan, opt);
  std::printf("  events=%llu begun=%llu failed=%llu retries=%llu\n"
              "  reconstruct_reads=%llu shards_rebuilt=%llu parity_mismatch=%llu\n",
              u(a.events), u(a.begun), u(a.failed), u(a.retries), u(a.reconstruct_reads),
              u(a.shards_rebuilt), u(a.parity_mismatch));
  print_scrub(a);
  // Degraded reads decoded around missing shards, every shard lost to a
  // crash window was rebuilt by decode-from-peers, and the parity flip (and
  // any torn stripe) was found and reconstructed.
  expect(a.reconstruct_reads > 0, label + ": no degraded read was reconstructed");
  expect(a.shards_rebuilt > 0, label + ": no shard was rebuilt by decode");
  expect(a.detect_inconsistent > 0, label + ": scrub must detect the parity flip");
  expect(a.repaired > 0, label + ": scrub repair must reconstruct bad shards");
}

/// Detected membership: heartbeats, monitor arbitration, epoch fencing.
void leg_membership(const Mode& mode) {
  const std::string cell = cell_name(mode);
  const mon::MembershipConfig hb;  // the cells run the default timers

  // (a) fault-free: heartbeats flow, nobody is ever suspected or marked
  // down, and the run is deterministic.
  std::printf("\n[membership healthy %s] no faults\n", cell.c_str());
  std::string label = "membership healthy " + cell;
  const Digest h = run_twice(label, mode, 42, fault::FaultPlan{});
  std::printf("  hb_sent=%llu timeouts=%llu markdowns=%zu false_downs=%llu deltas=%llu\n",
              u(h.hb_sent), u(h.hb_timeouts), h.markdowns.size(), u(h.false_downs),
              u(h.map_deltas));
  expect(h.hb_sent > 0, label + ": heartbeats must flow");
  expect(h.hb_timeouts == 0, label + ": no grace expiry without faults");
  expect(h.markdowns.empty(), label + ": no mark-down without faults");
  expect(h.false_downs == 0, label + ": no false mark-downs");
  expect(h.laggy_flags == 0, label + ": no laggy flags without faults");

  // (b) crash + restart: detection within grace + 2 heartbeat intervals,
  // never before the grace expires, the boot beacon marks it up again, and
  // a deep scrub after the drain finds no inconsistent or missing replica
  // (scrub converges: the returning OSD was backfilled).
  std::printf("\n[membership crash/restart %s] osd.1 down 300ms..550ms\n", cell.c_str());
  label = "membership crash " + cell;
  fault::FaultPlan crash_plan;
  crash_plan.crash_restart(300 * kMillisecond, 1, 250 * kMillisecond);
  LegOptions scrub_opt;
  scrub_opt.scrub = true;
  const Digest c = run_twice(label, mode, 42, crash_plan, scrub_opt);
  std::printf("  markdowns=%zu markups=%zu reports=%llu deltas=%llu fenced=%llu+%llu+%llu\n",
              c.markdowns.size(), c.markups.size(), u(c.failure_reports), u(c.map_deltas),
              u(c.fenced_ops), u(c.fenced_rep_ops), u(c.fenced_replies));
  expect(!c.markdowns.empty() && c.markdowns[0].first == 1, label + ": osd.1 must be marked down");
  if (!c.markdowns.empty()) {
    const Time at = c.markdowns[0].second;
    const Time crash_at = 300 * kMillisecond;
    std::printf("  detection latency: %.1fms after crash\n",
                double(at - crash_at) / double(kMillisecond));
    expect(at >= crash_at + hb.hb_grace, label + ": mark-down must wait out the grace period");
    expect(at <= crash_at + hb.hb_grace + 2 * hb.hb_interval,
           label + ": detection must land within grace + 2 intervals");
  }
  expect(!c.markups.empty() && c.markups[0].first == 1,
         label + ": boot beacon must mark osd.1 up again");
  expect(c.false_downs == 0, label + ": the mark-down was real");
  expect(c.map_deltas >= 2, label + ": down and up must both publish");
  std::printf("  scrub after drain: inconsistent=%llu missing=%llu\n",
              u(c.detect_inconsistent), u(c.detect_missing));
  expect(c.detect_inconsistent == 0 && c.detect_missing == 0,
         label + ": scrub after the drain must find every replica consistent");

  // (c) split brain: osd.0 loses its peers and the monitor but keeps its
  // clients. Its in-flight writes cannot replicate and must FAIL (silent
  // peers are not known-down to it), never ack — and once the healthy
  // side's epoch moves, stale-stamped ops get fenced. Verify mode proves
  // no acked write was lost.
  std::printf("\n[membership split-brain %s] osd.0 isolated from peers+mon, not clients\n",
              cell.c_str());
  label = "membership split " + cell;
  fault::FaultPlan split_plan;
  for (std::uint32_t peer = 1; peer <= 3; peer++) {
    split_plan.link_partition(300 * kMillisecond, 0, peer, 300 * kMillisecond);
  }
  split_plan.link_partition(300 * kMillisecond, 0, fault::kMonPeer, 300 * kMillisecond);
  LegOptions split_opt;
  split_opt.write_fraction = 0.7;
  split_opt.verify = true;
  const Digest s = run_twice(label, mode, 42, split_plan, split_opt);
  std::printf("  markdowns=%zu rep_unresolved=%llu fenced=%llu+%llu+%llu "
              "verify_failures=%llu below_min=%llu\n",
              s.markdowns.size(), u(s.rep_unresolved), u(s.fenced_ops), u(s.fenced_rep_ops),
              u(s.fenced_replies), u(s.verify_failures), u(s.below_min));
  expect(!s.markdowns.empty() && s.markdowns[0].first == 0,
         label + ": the isolated osd.0 must be marked down");
  expect(s.rep_unresolved > 0, label + ": writes with silent-but-up peers must fail, not ack");
  expect(s.fenced_ops + s.fenced_rep_ops + s.fenced_replies > 0,
         label + ": stale-epoch ops must be fenced");
  expect(s.verify_failures == 0, label + ": no acked write may be lost");
  expect(s.false_downs == 0, label + ": partition mark-down is correct");

  // (d) gray failure: a slow SSD leaves heartbeats crisp — the OSD goes
  // laggy via the op-age self-check but is never marked down.
  std::printf("\n[membership gray %s] osd.1 SSD x50 for 400ms, laggy_op_age=2ms\n",
              cell.c_str());
  label = "membership gray " + cell;
  fault::FaultPlan gray_plan;
  gray_plan.ssd_slow(300 * kMillisecond, 1, 50.0, 400 * kMillisecond);
  LegOptions gray_opt;
  gray_opt.write_fraction = 0.5;
  gray_opt.laggy_op_age = 2 * kMillisecond;
  const Digest g = run_twice(label, mode, 42, gray_plan, gray_opt);
  std::printf("  laggy_flags=%llu markdowns=%zu false_downs=%llu\n", u(g.laggy_flags),
              g.markdowns.size(), u(g.false_downs));
  expect(g.laggy_flags > 0, label + ": the slow OSD must be flagged laggy");
  expect(g.markdowns.empty(), label + ": alive-but-slow must never be marked down");
  expect(g.false_downs == 0, label + ": no false mark-downs");
}

/// Randomized plans, five seeds.
void leg_random(const Mode& mode) {
  for (std::uint64_t seed = 1; seed <= 5; seed++) {
    const fault::FaultPlan plan =
        fault::FaultPlan::random(seed, 150 * kMillisecond, 1000 * kMillisecond, 6, 4);
    std::printf("\n[random plan seed=%llu %s]\n%s", u(seed), cell_name(mode).c_str(),
                plan.describe().c_str());
    const std::string seed_str = std::to_string(seed);
    const Digest a = run_twice("random seed " + seed_str + " " + cell_name(mode), mode,
                               1000 + seed, plan);
    std::printf("  events=%llu begun=%llu failed=%llu retries=%llu degraded=%llu\n",
                u(a.events), u(a.begun), u(a.failed), u(a.retries), u(a.degraded));
  }
}

struct Leg {
  const char* name;
  void (*run)(const Mode&);
  bool detected_only;  // membership: the leg tests failure detection itself
};

constexpr Leg kLegs[] = {
    {"empty", leg_empty, false},
    {"directed", leg_directed, false},
    {"corruption", leg_corruption, false},
    {"ec", leg_ec, false},
    {"membership", leg_membership, true},
    {"random", leg_random, false},
};

int usage_error(const std::string& what) {
  std::fprintf(stderr,
               "chaos: %s\nusage: chaos [--leg=<empty|directed|corruption|ec|membership|random>] "
               "[--store=<file|flash>] [--membership=<oracle|detected>]\n",
               what.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string leg_filter;
  std::string store_filter;
  std::string membership_filter;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--leg=", 0) == 0) {
      leg_filter = arg.substr(6);
    } else if (arg.rfind("--store=", 0) == 0) {
      store_filter = arg.substr(8);
    } else if (arg.rfind("--membership=", 0) == 0) {
      membership_filter = arg.substr(13);
    } else {
      return usage_error("unknown argument '" + arg + "'");
    }
  }
  // Fail fast on a value that matches nothing: a typo in a CI invocation
  // must not become a silently-passing no-op run.
  bool leg_known = leg_filter.empty();
  for (const Leg& leg : kLegs) leg_known = leg_known || leg_filter == leg.name;
  if (!leg_known) return usage_error("unknown --leg='" + leg_filter + "'");
  if (!store_filter.empty() && !store::parse_backend(store_filter)) {
    return usage_error("unknown --store='" + store_filter + "'");
  }
  if (!membership_filter.empty() && membership_filter != "oracle" &&
      membership_filter != "detected") {
    return usage_error("unknown --membership='" + membership_filter + "'");
  }

  std::vector<std::pair<const Leg*, Mode>> cells;
  for (const Leg& leg : kLegs) {
    if (!leg_filter.empty() && leg_filter != leg.name) continue;
    for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
      if (!store_filter.empty() && store_filter != store::backend_name(backend)) continue;
      for (const mon::MembershipMode membership :
           {mon::MembershipMode::kOracle, mon::MembershipMode::kDetected}) {
        if (leg.detected_only && membership != mon::MembershipMode::kDetected) continue;
        if (!membership_filter.empty() && membership_filter != membership_name(membership)) {
          continue;
        }
        cells.emplace_back(&leg, Mode{backend, membership});
      }
    }
  }
  if (cells.empty()) return usage_error("the filters select no cell");

  std::printf("chaos soak: 4 OSDs rep=2 min_size=1, 4 VMs 4K random write, "
              "rep_timeout=40ms client_timeout=250ms; every leg on "
              "{file, flash} x {oracle, detected}\n");
  for (const auto& [leg, mode] : cells) leg->run(mode);
  std::printf("\nchaos soak: %s (%zu cells, %d invariant failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", cells.size(), g_failures);
  return g_failures == 0 ? 0 : 1;
}
