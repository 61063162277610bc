// Figure 4 reproduction: "Performance comparison (Log vs No log)".
//
// Setup per the paper: PG-lock minimization and system tuning already
// applied (ladder step 2), 4K random writes, long run. Two curves:
// logging ON (blocking dout) vs logging OFF. Paper shapes:
//  * No-log holds a high plateau for a few seconds (point A), then
//    fluctuation begins (point B) as the filestore queue grows — the
//    filestore cannot apply as fast as ops arrive, and the throttle stalls
//    propagate back;
//  * Log-on runs visibly lower from the start (dout is on the critical
//    path).

#include <cstdio>

#include "afceph.h"

using namespace afc;

namespace {

core::RunResult run_case(bool logging) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::ladder(2);  // +lock, +throttle/tuning
  cfg.profile.logging_enabled = logging;
  cfg.profile.name = logging ? "log" : "no-log";
  cfg.sustained = false;  // fresh SSDs at t=0...
  // ...but the drives' pre-erased pools run out mid-run: GC begins and the
  // filestore stops keeping up — the paper's "point B".
  cfg.ssd.clean_budget_bytes = 400 * kMiB;
  cfg.vms = 80;
  core::ClusterSim cluster(cfg);
  auto spec = client::WorkloadSpec::rand_write(4096, 16);
  spec.warmup = 0;
  spec.runtime = 10 * kSecond;
  return cluster.run(spec);
}

}  // namespace

int main() {
  std::printf("Fig.4: Log vs No log, 4K randwrite (lock-opt + tuning applied, sustained)\n\n");
  auto with_log = run_case(true);
  auto no_log = run_case(false);

  Table t({"t (s)", "Log IOPS", "No-log IOPS"});
  const std::size_t buckets = std::max(with_log.write_series.size(), no_log.write_series.size());
  for (std::size_t i = 0; i < buckets; i += 2) {  // 200ms stride
    auto rate = [&](const TimeSeries& s) {
      return i < s.size() ? Table::kiops(s.rate(i)) : std::string("-");
    };
    t.row({Table::num(double(i) * 0.1, 1), rate(with_log.write_series),
           rate(no_log.write_series)});
  }
  t.print();

  std::printf("\nsummary (paper: no-log holds a high plateau, then fluctuation after point B):\n");
  std::printf("  log   : %8.0f IOPS overall, fluctuation (CoV) %.3f\n", with_log.write_iops,
              with_log.write_cov);
  std::printf("  no-log: %8.0f IOPS overall, fluctuation (CoV) %.3f\n", no_log.write_iops,
              no_log.write_cov);
  std::printf("  no-log first fifth vs last fifth: %.0f -> %.0f IOPS (point B onset)\n",
              no_log.write_series.mean_rate(2, no_log.write_series.size() / 5),
              no_log.write_series.mean_rate(no_log.write_series.size() * 4 / 5, ~0u));
  std::printf("  no-log CoV first fifth %.3f -> last fifth %.3f\n",
              no_log.write_series.cov(2, no_log.write_series.size() / 5),
              no_log.write_series.cov(no_log.write_series.size() * 4 / 5, ~0u));
  return 0;
}
