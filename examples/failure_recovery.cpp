// Failure & recovery: why the paper refuses to dismantle the PG lock scheme
// (§3.1: "PG lock ... is the basis of the recovery system"). This example
// writes a verified dataset, decommissions an OSD, lets the cluster
// re-replicate from the surviving copies using CRUSH's recomputed mapping,
// and proves that every byte survives and full redundancy is restored.

#include <cstdio>

#include "afceph.h"

using namespace afc;

int main() {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.sustained = false;
  cfg.osd_nodes = 3;
  cfg.osds_per_node = 2;
  cfg.vms = 4;
  cfg.pg_num = 128;
  cfg.image_size = 1 * kGiB;
  core::ClusterSim cluster(cfg);
  auto& sim = cluster.simulation();

  constexpr int kObjects = 128;
  bool ok = true;

  sim::spawn_fn([&]() -> sim::CoTask<void> {
    auto& vm = cluster.vm(0);
    std::printf("1. writing %d verified objects (replication %u)...\n", kObjects,
                cluster.config().replication);
    for (int i = 0; i < kObjects; i++) {
      co_await vm.write_once(std::uint64_t(i) * 4 * kMiB,
                             Payload::pattern(4096, 7000 + std::uint64_t(i)));
    }
    co_await sim::delay(sim, 2 * kSecond);  // filestore applies settle

    // Count how many of the objects the victim holds a replica of.
    constexpr std::uint32_t kVictim = 1;
    std::size_t victim_objects = 0;
    for (int i = 0; i < kObjects; i++) {
      const auto m = vm.image().map(std::uint64_t(i) * 4 * kMiB);
      const fs::ObjectId oid{cluster.map().pg_of(m.object_name), m.object_name};
      if (cluster.osd(kVictim).store().object_in_memory(oid)) victim_objects++;
    }
    std::printf("2. failing osd.%u (holds %zu object replicas)...\n", kVictim, victim_objects);

    const Time t0 = sim.now();
    const std::uint64_t migrated = co_await cluster.decommission_osd(kVictim);
    std::printf("3. recovery done: %llu objects re-replicated in %.1f ms (virtual)\n",
                (unsigned long long)migrated, to_ms(sim.now() - t0));

    std::printf("4. verifying all %d objects through the new mapping...\n", kObjects);
    int bad = 0;
    for (int i = 0; i < kObjects; i++) {
      auto r = co_await vm.read_once(std::uint64_t(i) * 4 * kMiB, 4096);
      if (!r.ok || !Payload::bytes(std::move(r.data))
                        .content_equals(Payload::pattern(4096, 7000 + std::uint64_t(i)))) {
        bad++;
      }
    }
    std::printf("   %d/%d objects verified\n", kObjects - bad, kObjects);
    ok &= bad == 0;

    std::printf("5. checking redundancy is fully restored...\n");
    int under_replicated = 0;
    for (int i = 0; i < kObjects; i++) {
      const auto m = vm.image().map(std::uint64_t(i) * 4 * kMiB);
      const auto pg = cluster.map().pg_of(m.object_name);
      const auto& acting = cluster.map().acting(pg);
      if (acting.size() < cluster.config().replication) under_replicated++;
      for (auto osd : acting) {
        if (osd == kVictim ||
            !cluster.osd(osd).store().object_in_memory(fs::ObjectId{pg, m.object_name})) {
          under_replicated++;
        }
      }
    }
    std::printf("   under-replicated or misplaced copies: %d\n", under_replicated);
    ok &= under_replicated == 0;
  });
  sim.run_until(600 * kSecond);
  std::printf("\n%s\n", ok ? "failure/recovery scenario complete: no data loss"
                           : "RECOVERY FAILED");
  return ok ? 0 : 1;
}
