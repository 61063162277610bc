// Figure 14 (beyond the paper): multi-tenant tail-latency isolation under a
// noisy neighbor, driven open-loop.
//
// The paper's evaluation is closed-loop: a handful of VM clients whose
// offered load collapses as soon as the cluster slows down, which makes
// noisy-neighbor damage invisible — the flood politely throttles itself.
// This sweep drives the cluster with the open-loop engine (src/workload/):
// a well-behaved "steady" tenant at a modest Poisson rate, multiplexing a
// large logical-tenant population, and a "flood" tenant pushing far past
// cluster capacity. Three phases:
//
//   solo       steady alone — its baseline p99
//   qos-off    steady + flood, no scheduler: the flood's backlog queues in
//              front of everything and steady's p99 explodes
//   qos-on     same traffic, dmClock at every OSD: steady holds a
//              reservation, the flood a hard limit — steady's p99 must stay
//              within 2x of solo (the isolation gate; check.sh --smoke)

#include <cstdio>
#include <cstring>

#include "afceph.h"

using namespace afc;

namespace {

struct Phase {
  const char* name;
  bool flood = false;
  bool qos = false;
};

struct PhaseResult {
  workload::StreamResult steady;
  workload::StreamResult flood;
  core::RunResult cluster;
};

// Small clean-state cluster: 2 nodes x 2 OSDs. The flood rate below is ~6x
// what this complement sustains for 4K writes, so qos-off genuinely drowns.
core::ClusterConfig base_config() {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 2;
  cfg.vms = 8;
  cfg.pg_num = 256;
  cfg.sustained = false;
  cfg.populated = 0;
  return cfg;
}

constexpr double kSteadyRate = 2000;    // ops/s, well under capacity
constexpr double kFloodRate = 60000;    // ops/s, far past capacity
constexpr double kFloodLimit = 8000;    // qos-on: the flood's hard ceiling

workload::StreamSpec steady_stream() {
  workload::StreamSpec s;
  s.name = "steady";
  s.tenant = 1;
  s.arrival.kind = workload::ArrivalConfig::Kind::kPoisson;
  s.arrival.rate = kSteadyRate;
  s.population.tenants = 200000;  // a population in the hundreds of thousands
  s.population.skew = 0.99;
  s.population.inflight_cap = 4;
  s.write_fraction = 1.0;
  s.zipf_theta = 0.9;
  return s;
}

workload::StreamSpec flood_stream() {
  workload::StreamSpec s;
  s.name = "flood";
  s.tenant = 2;
  s.arrival.kind = workload::ArrivalConfig::Kind::kBursty;
  s.arrival.rate = kFloodRate / 2.4;  // on/off duty cycle averages ~kFloodRate
  s.arrival.burst_factor = 8.0;
  s.arrival.burst_on = 50 * kMillisecond;
  s.arrival.burst_off = 200 * kMillisecond;
  s.population.tenants = 5000;
  s.population.skew = 0.99;
  s.population.inflight_cap = 16;
  s.population.overload = workload::TenantPopulation::Overload::kDrop;
  s.write_fraction = 1.0;
  s.zipf_theta = 0.9;
  return s;
}

PhaseResult run_phase(const Phase& ph, Time warmup, Time runtime) {
  core::ClusterConfig cfg = base_config();
  if (ph.qos) {
    cfg.qos.enabled = true;
    osd::TenantProfile steady;
    steady.tenant = 1;
    steady.pool_kind = "ssd";
    steady.reservation_iops = kSteadyRate * 1.25;  // headroom above its rate
    steady.weight = 4;
    osd::TenantProfile flood;
    flood.tenant = 2;
    flood.pool_kind = "ssd";
    flood.limit_iops = kFloodLimit;
    flood.weight = 1;
    cfg.qos.tenants = {steady, flood};
  }
  core::ClusterSim cluster(cfg);

  workload::OpenLoopSpec spec;
  spec.warmup = warmup;
  spec.runtime = runtime;
  spec.streams.push_back(steady_stream());
  if (ph.flood) spec.streams.push_back(flood_stream());

  workload::OpenLoopEngine engine(cluster, spec);
  auto r = engine.run();

  PhaseResult out;
  out.steady = r.streams[0];
  if (r.streams.size() > 1) out.flood = r.streams[1];
  out.cluster = r.cluster;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Fig.14: noisy-neighbor isolation with dmClock QoS (open-loop engine)%s\n",
              smoke ? " [smoke]" : "");

  const Time warmup = smoke ? 200 * kMillisecond : 300 * kMillisecond;
  const Time runtime = smoke ? 500 * kMillisecond : 1500 * kMillisecond;

  const Phase phases[] = {
      {"solo", false, false},
      {"flood-qos-off", true, false},
      {"flood-qos-on", true, true},
  };

  Table t({"phase", "steady IOPS", "steady p99", "vs solo", "flood IOPS", "flood dropped",
           "res grants", "limit defers"});
  double solo_p99 = 0, off_p99 = 0, on_p99 = 0;
  for (const Phase& ph : phases) {
    const PhaseResult r = run_phase(ph, warmup, runtime);
    if (std::strcmp(ph.name, "solo") == 0) solo_p99 = r.steady.p99_ms;
    if (std::strcmp(ph.name, "flood-qos-off") == 0) off_p99 = r.steady.p99_ms;
    if (std::strcmp(ph.name, "flood-qos-on") == 0) on_p99 = r.steady.p99_ms;
    t.row({ph.name, Table::kiops(r.steady.iops), Table::num(r.steady.p99_ms, 2) + " ms",
           solo_p99 > 0 ? Table::num(r.steady.p99_ms / solo_p99, 2) + "x" : "-",
           r.flood.name.empty() ? "-" : Table::kiops(r.flood.iops),
           r.flood.name.empty() ? "-" : std::to_string(r.flood.dropped),
           std::to_string(r.cluster.qos_reservation_grants),
           std::to_string(r.cluster.qos_limit_deferrals)});
  }
  t.print();

  std::printf(
      "\nopen-loop load makes the damage visible: without QoS the flood's backlog\n"
      "sits in front of every op and the steady tenant's p99 blows up %.1fx; with\n"
      "dmClock the reservation pins steady's dispatch and the limit caps the flood.\n",
      solo_p99 > 0 ? off_p99 / solo_p99 : 0.0);

  if (on_p99 > 2.0 * solo_p99) {
    std::fprintf(stderr, "FAIL: qos-on steady p99 %.2f ms > 2x solo %.2f ms\n", on_p99,
                 solo_p99);
    return 1;
  }
  if (off_p99 <= on_p99) {
    std::fprintf(stderr,
                 "FAIL: qos-off steady p99 %.2f ms not worse than qos-on %.2f ms — the flood "
                 "never hurt\n",
                 off_p99, on_p99);
    return 1;
  }
  std::printf("\nisolation gate OK: qos-on p99 %.2f ms <= 2x solo %.2f ms (qos-off: %.2f ms)\n",
              on_p99, solo_p99, off_p99);
  return 0;
}
