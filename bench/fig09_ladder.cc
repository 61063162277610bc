// Figure 9 reproduction: "Performance improvement with clean state SSDs
// (fio, direct, 4K random write)" — the ablation ladder. Each bar adds one
// optimization group on top of the previous:
//
//   community -> +lock-opt -> +throttle/tuning -> +non-blocking logging
//   -> +light transactions (== AFCeph)
//
// Paper shape: every step contributes, cumulative improvement > 2x.

#include <cstdio>

#include "afceph.h"

using namespace afc;

int main() {
  std::printf("Fig.9: optimization ladder, clean-state SSDs, 4K random write\n\n");

  Table t({"configuration", "IOPS", "mean lat (ms)", "gain vs prev", "gain vs community"});
  double base = 0.0, prev = 0.0;
  for (int step = 0; step <= 4; step++) {
    core::ClusterConfig cfg;
    cfg.profile = core::Profile::ladder(step);
    cfg.sustained = false;  // clean state
    cfg.vms = 40;
    core::ClusterSim cluster(cfg);
    auto spec = client::WorkloadSpec::rand_write(4096, 16);
    spec.warmup = 300 * kMillisecond;
    spec.runtime = 1500 * kMillisecond;
    auto r = cluster.run(spec);
    if (step == 0) base = r.write_iops;
    const std::string gain = Table::num((r.write_iops / prev - 1.0) * 100.0, 0);
    t.row({core::Profile::ladder_name(step), Table::kiops(r.write_iops),
           Table::num(r.write_lat_ms, 2), step == 0 ? "-" : "+" + gain + "%",
           Table::num(r.write_iops / base, 2) + "x"});
    prev = r.write_iops;
  }
  t.print();
  std::printf("\npaper: each optimization contributes; total improvement > 2x.\n");
  return 0;
}
