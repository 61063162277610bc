// Chaos soak: drive a write-heavy workload through a small cluster while a
// seeded FaultPlan crashes/restarts OSDs, slows SSDs, drops/delays/partitions
// links and stalls journals — then assert the recovery invariants:
//
//   1. exactly-once resolution: every op a client began resolved exactly
//      once (acked ok or failed), and no client has a dangling pending op
//      after the simulation drains;
//   2. durability floor: no write was acked with fewer than min_size
//      durable replicas (osd.acks_below_min_size == 0 on every OSD);
//   3. determinism: the same seed + plan produces an identical run digest
//      (event count, per-VM accounting, per-OSD counters) twice in a row;
//   4. zero-impact: installing an *empty* plan changes nothing — the run
//      digest equals a run with no injector at all.
//
// Exit status is non-zero if any invariant fails, so scripts/check.sh (and
// its ASan+UBSan leg) can gate on it.

#include <cstdio>
#include <string>
#include <vector>

#include "afceph.h"

using namespace afc;

namespace {

core::ClusterConfig chaos_config() {
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
  return cfg;
}

struct RunDigest {
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
  std::uint64_t hash = 0;

  bool operator==(const RunDigest&) const = default;
};

/// Drive the chaos workload to completion: VMs started directly instead of
/// via ClusterSim::run() — the sink must outlive the post-deadline drain
/// (io_loops record their final op while the simulation finishes timeouts,
/// retries and backfills).
void drive_workload(core::ClusterSim& cluster, client::RunStats& stats,
                    double write_fraction = 1.0) {
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = write_fraction;
  spec.warmup = 100 * kMillisecond;
  spec.runtime = 900 * kMillisecond;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end);
  cluster.simulation().run();  // drain: timeouts, retries, backfills
}

RunDigest collect_digest(core::ClusterSim& cluster) {
  RunDigest d;
  d.events = cluster.simulation().executed_events();
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the counters
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
    mix(vm.ops_begun());
    mix(vm.ops_resolved());
    mix(vm.issued());
    mix(vm.completed());
  }
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    auto& osd = cluster.osd(o);
    d.below_min += osd.counters().get("osd.acks_below_min_size");
    d.degraded += osd.counters().get("osd.acks_degraded");
    d.write_failures += osd.counters().get("osd.write_failures");
    d.rep_retry_rounds += osd.counters().get("osd.rep_retry_rounds");
    d.dup_rep_replies += osd.counters().get("osd.dup_rep_replies");
    d.osd_writes += osd.client_writes();
    mix(osd.client_writes());
    mix(osd.replica_ops());
    for (const auto& [name, value] : osd.counters().all()) {
      for (char c : name) mix(std::uint64_t(std::uint8_t(c)));
      mix(value);
    }
  }
  mix(d.events);
  d.hash = h;
  return d;
}

/// One soak run: build a fresh cluster, arm `plan` (skipped when
/// `install == false`), run the workload, then drain the simulation so every
/// in-flight op, retry and backoff resolves.
RunDigest run_once(std::uint64_t seed, const fault::FaultPlan& plan, bool install) {
  core::ClusterConfig cfg = chaos_config();
  cfg.seed = seed;
  core::ClusterSim cluster(cfg);
  if (install) cluster.install_faults(plan);

  client::RunStats stats;
  drive_workload(cluster, stats);
  RunDigest d = collect_digest(cluster);

  // Unpark the worker coroutines so nothing is left allocated at exit
  // (keeps the LeakSanitizer leg of scripts/check.sh clean).
  cluster.close_all();
  cluster.simulation().run();
  return d;
}

/// The corruption leg's observables, compared across two runs for
/// determinism on top of the per-run invariants.
struct CorruptionDigest {
  RunDigest run;
  std::uint64_t deferred_writes = 0;  // FlashStore: payloads that rode the WAL
  std::uint64_t torn_entries = 0;     // injector: entries lost or torn
  std::uint64_t replayed = 0;         // records re-applied from local rings
  std::uint64_t torn_tails = 0;       // replay scans stopped at a torn record
  std::uint64_t crc_failures = 0;     // replay scans stopped at a flipped record
  std::uint64_t backfill_skipped = 0; // objects replay made backfill skip
  std::uint64_t detect_inconsistent = 0;
  std::uint64_t repaired = 0;
  std::uint64_t verify_inconsistent = 0;
  std::uint64_t verify_missing = 0;
  bool scrub_done = false;

  bool operator==(const CorruptionDigest&) const = default;
};

/// Corruption soak: tear osd 1's journal mid-stall (replay on restart),
/// tear osd 2's and flip a retained record while it is down (replay stops
/// at the bad CRC), then flip data extents on osds 2 and 3 after the drain
/// and let deep scrub find and repair them.
CorruptionDigest run_corruption(std::uint64_t seed,
                                store::Backend backend = store::Backend::kFile) {
  core::ClusterConfig cfg = chaos_config();
  cfg.seed = seed;
  cfg.store_backend = backend;
  core::ClusterSim cluster(cfg);

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
  fault::FaultInjector& inj = cluster.install_faults(plan);

  client::RunStats stats;
  drive_workload(cluster, stats);

  CorruptionDigest c;
  c.run = collect_digest(cluster);
  c.torn_entries = inj.counters().get("fault.torn_entries");
  core::RunResult rr;
  cluster.collect_osd_stats(rr);
  c.replayed = rr.journal_records_replayed;
  c.torn_tails = rr.journal_torn_tails;
  c.crc_failures = rr.journal_crc_failures;
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    c.backfill_skipped += cluster.osd(o).counters().get("osd.backfill_skipped");
    c.deferred_writes += cluster.osd(o).counters().get("flash.deferred_writes");
  }

  sim::spawn_fn([&cluster, &c]() -> sim::CoTask<void> {
    auto detect = co_await cluster.deep_scrub(/*repair=*/false);
    c.detect_inconsistent = detect.inconsistent;
    auto repair = co_await cluster.deep_scrub(/*repair=*/true);
    c.repaired = repair.repaired;
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    c.verify_inconsistent = verify.inconsistent;
    c.verify_missing = verify.missing;
    c.scrub_done = true;
  });
  cluster.simulation().run();

  cluster.close_all();
  cluster.simulation().run();
  return c;
}

/// The EC leg's observables: run invariants plus the reconstruction,
/// rebuild and scrub-convergence evidence, compared across two runs.
struct EcDigest {
  RunDigest run;
  std::uint64_t reconstruct_reads = 0;
  std::uint64_t shards_rebuilt = 0;
  std::uint64_t parity_mismatch = 0;
  std::uint64_t detect_inconsistent = 0;
  std::uint64_t repaired = 0;
  std::uint64_t verify_inconsistent = 0;
  std::uint64_t verify_missing = 0;
  bool scrub_done = false;

  bool operator==(const EcDigest&) const = default;
};

/// EC(4+2) soak: 8 OSDs, 6-wide stripes, mixed 70/30 write/read traffic.
/// The plan walks the whole EC fault surface in disjoint windows: a crash
/// mid-stripe (journal replay + rebuild-by-decode on return), a torn shard
/// write, a partition making m=2 OSDs unreachable (degraded reads decode
/// around them; writes ride the shard watchdog), an overlapping two-shard
/// loss (reads still served from exactly k survivors), and a parity-shard
/// bit flip after the drain for the scrub to find.
EcDigest run_ec(std::uint64_t seed) {
  core::ClusterConfig cfg = chaos_config();
  cfg.osd_nodes = 8;
  cfg.pg_num = 64;
  cfg.ec_pool = true;
  cfg.ec_k = 4;
  cfg.ec_m = 2;
  cfg.min_size = 0;              // EC default floor: k+1 durable shards
  cfg.image_size = 32 * kMiB;    // small images: reads re-hit written blocks
  cfg.seed = seed;
  core::ClusterSim cluster(cfg);

  fault::FaultPlan plan;
  plan.crash_restart(300 * kMillisecond, 1, 150 * kMillisecond);
  plan.torn_write(500 * kMillisecond, 3);
  plan.restart(650 * kMillisecond, 3);
  plan.link_partition(700 * kMillisecond, 4, fault::kAllPeers, 120 * kMillisecond);
  plan.link_partition(700 * kMillisecond, 5, fault::kAllPeers, 120 * kMillisecond);
  plan.crash_restart(950 * kMillisecond, 6, 120 * kMillisecond);
  plan.crash_restart(950 * kMillisecond, 7, 120 * kMillisecond);
  plan.bit_flip_parity(2 * kSecond, 2);
  cluster.install_faults(plan);

  client::RunStats stats;
  drive_workload(cluster, stats, /*write_fraction=*/0.7);

  EcDigest e;
  e.run = collect_digest(cluster);
  core::RunResult rr;
  cluster.collect_osd_stats(rr);
  e.reconstruct_reads = rr.ec_reconstruct_reads;
  e.shards_rebuilt = rr.ec_shards_rebuilt;

  sim::spawn_fn([&cluster, &e]() -> sim::CoTask<void> {
    auto detect = co_await cluster.deep_scrub(/*repair=*/false);
    e.detect_inconsistent = detect.inconsistent;
    auto repair = co_await cluster.deep_scrub(/*repair=*/true);
    e.repaired = repair.repaired;
    auto verify = co_await cluster.deep_scrub(/*repair=*/false);
    e.verify_inconsistent = verify.inconsistent;
    e.verify_missing = verify.missing;
    e.scrub_done = true;
  });
  cluster.simulation().run();

  core::RunResult after;
  cluster.collect_osd_stats(after);
  e.parity_mismatch = after.ec_parity_mismatch;

  cluster.close_all();
  cluster.simulation().run();
  return e;
}

/// The membership leg's observables: the base run invariants plus the
/// heartbeat / monitor / fencing evidence, compared across two runs.
struct MembershipDigest {
  RunDigest run;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> markdown_events;  // (osd, at)
  std::vector<std::pair<std::uint32_t, std::uint64_t>> markup_events;
  std::uint64_t markouts = 0;
  std::uint64_t false_downs = 0;
  std::uint64_t map_deltas = 0;
  std::uint64_t failure_reports = 0;
  std::uint64_t laggy_flags = 0;
  std::uint64_t hb_sent = 0;
  std::uint64_t hb_timeouts = 0;
  std::uint64_t fenced_ops = 0;       // stale client ops rejected at OSDs
  std::uint64_t fenced_rep_ops = 0;   // stale rep-ops rejected at replicas
  std::uint64_t fenced_replies = 0;   // fence rejections clients saw
  std::uint64_t client_map_updates = 0;
  std::uint64_t rep_unresolved = 0;   // degraded-ack gating: silent peer -> fail
  std::uint64_t verify_failures = 0;
  bool scrub_done = false;  // deep scrub after the drain
  std::uint64_t scrub_inconsistent = 0;
  std::uint64_t scrub_missing = 0;

  bool operator==(const MembershipDigest&) const = default;
};

/// One detected-mode soak run. The heartbeat/beacon timers re-arm forever,
/// so the post-deadline drain is a fixed window (run_until) instead of
/// running the event queue dry; close_all() then cancels the periodic plane
/// and the residue drains to empty.
template <typename Mutate>
MembershipDigest run_membership(std::uint64_t seed, const fault::FaultPlan& plan,
                                double write_fraction, bool verify, Mutate mutate) {
  core::ClusterConfig cfg = chaos_config();
  cfg.seed = seed;
  cfg.membership.mode = mon::MembershipMode::kDetected;
  mutate(cfg);
  core::ClusterSim cluster(cfg);
  if (!plan.empty()) cluster.install_faults(plan);

  client::RunStats stats;
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = write_fraction;
  spec.verify = verify;
  spec.warmup = 100 * kMillisecond;
  spec.runtime = 900 * kMillisecond;
  stats.window_start = spec.warmup;
  stats.window_end = spec.warmup + spec.runtime;
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    cluster.vm(v).start(spec, stats.window_end, &stats);
  }
  cluster.simulation().run_until(stats.window_end);
  cluster.simulation().run_until(stats.window_end + 2 * kSecond);  // drain window

  MembershipDigest m;
  m.run = collect_digest(cluster);
  m.verify_failures = stats.verify_failures;
  const mon::Monitor& mon = *cluster.monitor();
  for (const auto& e : mon.markdowns()) m.markdown_events.emplace_back(e.osd, e.at);
  for (const auto& e : mon.markups()) m.markup_events.emplace_back(e.osd, e.at);
  m.markouts = mon.counters().get("mon.markouts");
  m.false_downs = mon.counters().get("mon.false_downs");
  m.map_deltas = mon.counters().get("mon.map_deltas");
  m.failure_reports = mon.counters().get("mon.failure_reports");
  m.laggy_flags = mon.counters().get("mon.laggy_flags");
  for (std::size_t o = 0; o < cluster.osd_count(); o++) {
    const auto& c = cluster.osd(o).counters();
    m.hb_sent += c.get("osd.hb_sent");
    m.hb_timeouts += c.get("osd.hb_timeouts");
    m.fenced_ops += c.get("osd.fenced_ops");
    m.fenced_rep_ops += c.get("osd.fenced_rep_ops");
    m.rep_unresolved += c.get("osd.rep_unresolved_failures");
  }
  for (std::size_t v = 0; v < cluster.vm_count(); v++) {
    m.fenced_replies += cluster.vm(v).fenced_replies();
    m.client_map_updates += cluster.vm(v).map_updates();
  }

  // Deep scrub after the drain, taken after the digest so it cannot perturb
  // it. The heartbeat timers never stop, so step in bounded windows.
  sim::spawn_fn([&cluster, &m]() -> sim::CoTask<void> {
    const core::ClusterSim::ScrubReport rep = co_await cluster.deep_scrub(/*repair=*/false);
    m.scrub_inconsistent = rep.inconsistent;
    m.scrub_missing = rep.missing;
    m.scrub_done = true;
  });
  auto& sim = cluster.simulation();
  for (int i = 0; i < 100 && !m.scrub_done; i++) sim.run_until(sim.now() + 100 * kMillisecond);

  cluster.close_all();
  cluster.simulation().run();
  return m;
}

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("  FAIL: %s\n", what.c_str());
    g_failures++;
  }
}

void check_invariants(const char* label, const RunDigest& d) {
  expect(d.pending == 0, std::string(label) + ": pending ops after drain");
  expect(d.begun == d.resolved, std::string(label) + ": ops begun != ops resolved");
  expect(d.below_min == 0, std::string(label) + ": write acked below min_size");
  expect(d.begun > 0, std::string(label) + ": no ops ran");
}

}  // namespace

int main(int argc, char** argv) {
  // `--leg=<empty|directed|random|corruption|store|ec|membership>` runs one
  // leg (scripts/check.sh uses this to give the sanitizer build separate,
  // faster invocations); no argument runs them all.
  std::string leg;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--leg=", 0) == 0) leg = arg.substr(6);
  }
  // Fail fast on a leg name that matches nothing: a typo in a CI
  // invocation must not become a silently-passing no-op run.
  int legs_run = 0;
  const auto runs = [&leg, &legs_run](const char* name) {
    const bool r = leg.empty() || leg == name;
    if (r) legs_run++;
    return r;
  };

  std::printf("chaos soak: 4 OSDs rep=2 min_size=1, 4 VMs 4K random write, "
              "rep_timeout=40ms client_timeout=250ms\n\n");

  // --- zero-impact: empty plan == no injector at all ----------------------
  if (runs("empty")) {
    const RunDigest bare = run_once(42, fault::FaultPlan{}, /*install=*/false);
    const RunDigest empty = run_once(42, fault::FaultPlan{}, /*install=*/true);
    std::printf("[empty plan] events=%llu begun=%llu  (bare events=%llu)\n",
                (unsigned long long)empty.events, (unsigned long long)empty.begun,
                (unsigned long long)bare.events);
    expect(bare == empty, "empty FaultPlan must not perturb the run");
    check_invariants("empty", empty);
  }

  // --- a directed plan hitting every fault kind ---------------------------
  if (runs("directed")) {
    fault::FaultPlan plan;
    plan.crash_restart(300 * kMillisecond, 1, 200 * kMillisecond);
    plan.ssd_slow(250 * kMillisecond, 2, 8.0, 300 * kMillisecond);
    plan.link_drop(200 * kMillisecond, 0, 3, 0.3, 400 * kMillisecond);
    plan.link_delay(350 * kMillisecond, 2, 3, 900 * kMicrosecond, 250 * kMillisecond);
    plan.link_partition(500 * kMillisecond, 3, fault::kAllPeers, 150 * kMillisecond);
    plan.journal_stall(450 * kMillisecond, 0, 60 * kMillisecond);
    std::printf("\n[directed plan]\n%s", plan.describe().c_str());
    const RunDigest a = run_once(42, plan, true);
    const RunDigest b = run_once(42, plan, true);
    std::printf("  events=%llu begun=%llu failed=%llu retries=%llu degraded=%llu "
                "rep_retry_rounds=%llu dups=%llu\n",
                (unsigned long long)a.events, (unsigned long long)a.begun,
                (unsigned long long)a.failed, (unsigned long long)a.retries,
                (unsigned long long)a.degraded, (unsigned long long)a.rep_retry_rounds,
                (unsigned long long)a.dup_rep_replies);
    check_invariants("directed", a);
    expect(a == b, "directed plan: same seed must reproduce byte-identical digests");
  }

  // --- corruption: torn journals, flipped records, flipped extents --------
  if (runs("corruption")) {
    std::printf("\n[corruption plan]\n");
    const CorruptionDigest a = run_corruption(42);
    const CorruptionDigest b = run_corruption(42);
    std::printf("  torn_entries=%llu replayed=%llu torn_tails=%llu crc_failures=%llu "
                "backfill_skipped=%llu\n"
                "  scrub: inconsistent=%llu repaired=%llu after-repair inconsistent=%llu "
                "missing=%llu\n",
                (unsigned long long)a.torn_entries, (unsigned long long)a.replayed,
                (unsigned long long)a.torn_tails, (unsigned long long)a.crc_failures,
                (unsigned long long)a.backfill_skipped,
                (unsigned long long)a.detect_inconsistent, (unsigned long long)a.repaired,
                (unsigned long long)a.verify_inconsistent,
                (unsigned long long)a.verify_missing);
    check_invariants("corruption", a.run);
    // Replay: both tears found queued batches; restarts re-applied the
    // surviving prefixes from the local rings, so backfill skipped objects
    // replay had already recovered (it covered strictly less).
    expect(a.torn_entries > 0, "corruption: tears must hit queued journal entries");
    expect(a.replayed > 0, "corruption: restart must replay locally durable records");
    expect(a.torn_tails > 0, "corruption: replay must stop at a torn tail");
    expect(a.crc_failures > 0, "corruption: replay must stop at the flipped record");
    expect(a.backfill_skipped > 0,
           "corruption: replay must let backfill skip recovered objects");
    // Scrub: the flipped extents are detected, repaired from healthy peers,
    // and a re-scrub comes back clean.
    expect(a.scrub_done, "corruption: scrub pass did not finish");
    expect(a.detect_inconsistent >= 2, "corruption: scrub must detect both bit flips");
    expect(a.repaired >= a.detect_inconsistent,
           "corruption: repair must cover every inconsistency");
    expect(a.verify_inconsistent == 0 && a.verify_missing == 0,
           "corruption: re-scrub after repair must be clean");
    expect(a == b, "corruption plan: same seed must reproduce byte-identical digests");
  }

  // --- FlashStore backend under the same corruption stack -----------------
  if (runs("store")) {
    std::printf("\n[store plan] FlashStore backend: torn WAL, flipped record, data flips\n");
    const CorruptionDigest a = run_corruption(42, store::Backend::kFlash);
    const CorruptionDigest b = run_corruption(42, store::Backend::kFlash);
    std::printf("  deferred_writes=%llu torn_entries=%llu replayed=%llu torn_tails=%llu "
                "crc_failures=%llu\n"
                "  scrub: inconsistent=%llu repaired=%llu after-repair inconsistent=%llu "
                "missing=%llu\n",
                (unsigned long long)a.deferred_writes, (unsigned long long)a.torn_entries,
                (unsigned long long)a.replayed, (unsigned long long)a.torn_tails,
                (unsigned long long)a.crc_failures,
                (unsigned long long)a.detect_inconsistent, (unsigned long long)a.repaired,
                (unsigned long long)a.verify_inconsistent,
                (unsigned long long)a.verify_missing);
    // Replicated invariants hold on the raw-device backend: exactly-once
    // ack-or-fail, nothing pending, no ack below min_size.
    check_invariants("store", a.run);
    // The 4K writes ride the deferred-write WAL, the tears hit that ring,
    // and restart replays the surviving records through apply_transaction.
    expect(a.deferred_writes > 0, "store: 4K writes must ride the deferred-write WAL");
    expect(a.torn_entries > 0, "store: tears must hit queued WAL entries");
    expect(a.replayed > 0, "store: restart must replay locally durable WAL records");
    expect(a.torn_tails > 0, "store: replay must stop at a torn tail");
    expect(a.crc_failures > 0, "store: replay must stop at the flipped record");
    // Scrub convergence: detect the flipped extents, repair from healthy
    // peers, and come back clean.
    expect(a.scrub_done, "store: scrub pass did not finish");
    expect(a.detect_inconsistent >= 2, "store: scrub must detect both bit flips");
    expect(a.repaired >= a.detect_inconsistent,
           "store: repair must cover every inconsistency");
    expect(a.verify_inconsistent == 0 && a.verify_missing == 0,
           "store: re-scrub after repair must be clean");
    expect(a == b, "store plan: same seed must reproduce byte-identical digests");
  }

  // --- erasure-coded pool under the full fault stack ----------------------
  if (runs("ec")) {
    std::printf("\n[ec plan] 8 OSDs EC(4+2), 70/30 write/read\n");
    const EcDigest a = run_ec(42);
    const EcDigest b = run_ec(42);
    std::printf("  events=%llu begun=%llu failed=%llu retries=%llu\n"
                "  reconstruct_reads=%llu shards_rebuilt=%llu parity_mismatch=%llu\n"
                "  scrub: inconsistent=%llu repaired=%llu after-repair inconsistent=%llu "
                "missing=%llu\n",
                (unsigned long long)a.run.events, (unsigned long long)a.run.begun,
                (unsigned long long)a.run.failed, (unsigned long long)a.run.retries,
                (unsigned long long)a.reconstruct_reads, (unsigned long long)a.shards_rebuilt,
                (unsigned long long)a.parity_mismatch,
                (unsigned long long)a.detect_inconsistent, (unsigned long long)a.repaired,
                (unsigned long long)a.verify_inconsistent,
                (unsigned long long)a.verify_missing);
    // The replicated invariants hold verbatim: exactly-once ack-or-fail,
    // nothing pending after the drain, and no ack ever went out with fewer
    // than the floor of k+1 durable shards.
    check_invariants("ec", a.run);
    // Degraded reads decoded around missing shards, and every shard lost to
    // a crash window was rebuilt by decode-from-peers.
    expect(a.reconstruct_reads > 0, "ec: no degraded read was reconstructed");
    expect(a.shards_rebuilt > 0, "ec: no shard was rebuilt by decode");
    // The parity flip (and any torn stripe) is detected, repaired by
    // reconstruction, and a re-scrub converges to zero findings.
    expect(a.scrub_done, "ec: scrub pass did not finish");
    expect(a.detect_inconsistent > 0, "ec: scrub must detect the parity flip");
    expect(a.repaired > 0, "ec: scrub repair must reconstruct bad shards");
    expect(a.verify_inconsistent == 0 && a.verify_missing == 0,
           "ec: re-scrub after repair must be clean");
    expect(a == b, "ec plan: same seed must reproduce byte-identical digests");
  }

  // --- detected-mode membership: heartbeats, monitor, epoch fencing -------
  if (runs("membership")) {
    const auto no_mutate = [](core::ClusterConfig&) {};
    const std::uint64_t hb_interval = 20 * kMillisecond;
    const std::uint64_t hb_grace = 100 * kMillisecond;

    // (a) fault-free: heartbeats flow, nobody is ever suspected or marked
    // down, and the run is deterministic.
    std::printf("\n[membership healthy] detected mode, no faults\n");
    const MembershipDigest h1 = run_membership(42, fault::FaultPlan{}, 1.0, false, no_mutate);
    const MembershipDigest h2 = run_membership(42, fault::FaultPlan{}, 1.0, false, no_mutate);
    std::printf("  hb_sent=%llu timeouts=%llu markdowns=%zu false_downs=%llu deltas=%llu\n",
                (unsigned long long)h1.hb_sent, (unsigned long long)h1.hb_timeouts,
                h1.markdown_events.size(), (unsigned long long)h1.false_downs,
                (unsigned long long)h1.map_deltas);
    check_invariants("membership healthy", h1.run);
    expect(h1.hb_sent > 0, "membership healthy: heartbeats must flow");
    expect(h1.hb_timeouts == 0, "membership healthy: no grace expiry without faults");
    expect(h1.markdown_events.empty(), "membership healthy: no mark-down without faults");
    expect(h1.false_downs == 0, "membership healthy: no false mark-downs");
    expect(h1.laggy_flags == 0, "membership healthy: no laggy flags without faults");
    expect(h1 == h2, "membership healthy: same seed must reproduce identical digests");

    // (b) crash + restart: detection within grace + 2 heartbeat intervals,
    // never before the grace expires, the boot beacon marks it up again, and
    // a deep scrub after the drain finds no inconsistent or missing replica
    // (scrub converges: the returning OSD was backfilled).
    std::printf("\n[membership crash/restart] osd.1 down 300ms..550ms\n");
    fault::FaultPlan crash_plan;
    crash_plan.crash_restart(300 * kMillisecond, 1, 250 * kMillisecond);
    const MembershipDigest c1 = run_membership(42, crash_plan, 1.0, false, no_mutate);
    const MembershipDigest c2 = run_membership(42, crash_plan, 1.0, false, no_mutate);
    std::printf("  markdowns=%zu markups=%zu reports=%llu deltas=%llu fenced=%llu+%llu+%llu\n",
                c1.markdown_events.size(), c1.markup_events.size(),
                (unsigned long long)c1.failure_reports, (unsigned long long)c1.map_deltas,
                (unsigned long long)c1.fenced_ops, (unsigned long long)c1.fenced_rep_ops,
                (unsigned long long)c1.fenced_replies);
    check_invariants("membership crash", c1.run);
    expect(!c1.markdown_events.empty() && c1.markdown_events[0].first == 1,
           "membership crash: osd.1 must be marked down");
    if (!c1.markdown_events.empty()) {
      const std::uint64_t at = c1.markdown_events[0].second;
      const std::uint64_t crash_at = 300 * kMillisecond;
      std::printf("  detection latency: %.1fms after crash\n",
                  double(at - crash_at) / double(kMillisecond));
      expect(at >= crash_at + hb_grace,
             "membership crash: mark-down must wait out the grace period");
      expect(at <= crash_at + hb_grace + 2 * hb_interval,
             "membership crash: detection must land within grace + 2 intervals");
    }
    expect(!c1.markup_events.empty() && c1.markup_events[0].first == 1,
           "membership crash: boot beacon must mark osd.1 up again");
    expect(c1.false_downs == 0, "membership crash: the mark-down was real");
    expect(c1.map_deltas >= 2, "membership crash: down and up must both publish");
    std::printf("  scrub after drain: inconsistent=%llu missing=%llu\n",
                (unsigned long long)c1.scrub_inconsistent, (unsigned long long)c1.scrub_missing);
    expect(c1.scrub_done && c1.scrub_inconsistent == 0 && c1.scrub_missing == 0,
           "membership crash: scrub after the drain must find every replica consistent");
    expect(c1 == c2, "membership crash: same seed must reproduce identical digests");

    // (c) split brain: osd.0 loses its peers and the monitor but keeps its
    // clients. Its in-flight writes cannot replicate and must FAIL (silent
    // peers are not known-down to it), never ack — and once the healthy
    // side's epoch moves, stale-stamped ops get fenced. Verify mode proves
    // no acked write was lost.
    std::printf("\n[membership split-brain] osd.0 isolated from peers+mon, not clients\n");
    fault::FaultPlan split_plan;
    for (std::uint32_t peer = 1; peer <= 3; peer++) {
      split_plan.link_partition(300 * kMillisecond, 0, peer, 300 * kMillisecond);
    }
    split_plan.link_partition(300 * kMillisecond, 0, fault::kMonPeer, 300 * kMillisecond);
    const MembershipDigest s1 = run_membership(42, split_plan, 0.7, true, no_mutate);
    const MembershipDigest s2 = run_membership(42, split_plan, 0.7, true, no_mutate);
    std::printf("  markdowns=%zu rep_unresolved=%llu fenced=%llu+%llu+%llu "
                "verify_failures=%llu below_min=%llu\n",
                s1.markdown_events.size(), (unsigned long long)s1.rep_unresolved,
                (unsigned long long)s1.fenced_ops, (unsigned long long)s1.fenced_rep_ops,
                (unsigned long long)s1.fenced_replies, (unsigned long long)s1.verify_failures,
                (unsigned long long)s1.run.below_min);
    check_invariants("membership split", s1.run);
    expect(!s1.markdown_events.empty() && s1.markdown_events[0].first == 0,
           "membership split: the isolated osd.0 must be marked down");
    expect(s1.rep_unresolved > 0,
           "membership split: writes with silent-but-up peers must fail, not ack");
    expect(s1.fenced_ops + s1.fenced_rep_ops + s1.fenced_replies > 0,
           "membership split: stale-epoch ops must be fenced");
    expect(s1.verify_failures == 0, "membership split: no acked write may be lost");
    expect(s1.false_downs == 0, "membership split: partition mark-down is correct");
    expect(s1 == s2, "membership split: same seed must reproduce identical digests");

    // (d) gray failure: a slow SSD leaves heartbeats crisp — the OSD goes
    // laggy via the op-age self-check but is never marked down.
    std::printf("\n[membership gray] osd.1 SSD x50 for 400ms, laggy_op_age=2ms\n");
    fault::FaultPlan gray_plan;
    gray_plan.ssd_slow(300 * kMillisecond, 1, 50.0, 400 * kMillisecond);
    const auto gray_mutate = [](core::ClusterConfig& cfg) {
      cfg.membership.laggy_op_age = 2 * kMillisecond;
    };
    const MembershipDigest g1 = run_membership(42, gray_plan, 0.5, false, gray_mutate);
    const MembershipDigest g2 = run_membership(42, gray_plan, 0.5, false, gray_mutate);
    std::printf("  laggy_flags=%llu markdowns=%zu false_downs=%llu\n",
                (unsigned long long)g1.laggy_flags, g1.markdown_events.size(),
                (unsigned long long)g1.false_downs);
    check_invariants("membership gray", g1.run);
    expect(g1.laggy_flags > 0, "membership gray: the slow OSD must be flagged laggy");
    expect(g1.markdown_events.empty(),
           "membership gray: alive-but-slow must never be marked down");
    expect(g1.false_downs == 0, "membership gray: no false mark-downs");
    expect(g1 == g2, "membership gray: same seed must reproduce identical digests");
  }

  // --- randomized plans, each run twice for determinism -------------------
  for (std::uint64_t seed = 1; runs("random") && seed <= 5; seed++) {
    fault::FaultPlan plan = fault::FaultPlan::random(seed, 150 * kMillisecond,
                                                     1000 * kMillisecond, 6, 4);
    std::printf("\n[random plan seed=%llu]\n%s", (unsigned long long)seed,
                plan.describe().c_str());
    const RunDigest a = run_once(1000 + seed, plan, true);
    const RunDigest b = run_once(1000 + seed, plan, true);
    std::printf("  events=%llu begun=%llu failed=%llu retries=%llu degraded=%llu\n",
                (unsigned long long)a.events, (unsigned long long)a.begun,
                (unsigned long long)a.failed, (unsigned long long)a.retries,
                (unsigned long long)a.degraded);
    check_invariants(("seed " + std::to_string(seed)).c_str(), a);
    expect(a == b, "random plan seed " + std::to_string(seed) +
                       ": same seed must reproduce byte-identical digests");
  }

  if (legs_run == 0) {
    std::fprintf(stderr,
                 "chaos: unknown --leg='%s' "
                 "(expected empty|directed|random|corruption|store|ec|membership)\n",
                 leg.c_str());
    return 2;
  }
  std::printf("\nchaos soak: %s (%d invariant failures)\n",
              g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
