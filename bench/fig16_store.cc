// Figure 16 (beyond the paper): the object-store backend ladder.
//
// The paper's optimized AFCeph still writes every byte twice — once to the
// NVRAM journal, once through the filesystem (syscalls, page cache,
// writeback) to the SSD. This harness holds the whole optimized stack fixed
// and swaps only the backend under the OSD:
//
//   file    FileStore-on-XFS (the paper's optimized rung): external NVRAM
//           journal write-ahead, syscall-priced filesystem apply, dirty
//           writeback to the data SSD
//   flash   FlashStore: raw-device extent allocator (COW, no double-write),
//           sub-block deferred-write WAL on the NVRAM card, onode metadata
//           in the LSM KV, per-object SSD write streams
//
// Headline point: sustained 4K random write — FileStore pays the full GC
// write-amplification on its data path, FlashStore's stream hints earn the
// multi-stream SSD's segregated erase blocks. `--smoke` runs the headline
// point short and exits nonzero unless flash >= file (check.sh perf gate).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "afceph.h"

using namespace afc;

namespace {

struct Point {
  double iops = 0.0;
  double lat_ms = 0.0;
  double p99_ms = 0.0;
  double cpu = 0.0;
  std::uint64_t syscalls = 0;
  std::uint64_t gc_stalls = 0;
};

Point run_backend(store::Backend backend, const client::WorkloadSpec& spec, bool sustained) {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.store_backend = backend;
  cfg.sustained = sustained;
  core::ClusterSim cluster(cfg);
  auto r = cluster.run(spec);
  Point p;
  p.iops = r.write_iops;
  p.lat_ms = r.write_lat_ms;
  p.p99_ms = r.write_p99_ms;
  p.cpu = r.max_osd_node_cpu;
  p.syscalls = r.syscalls;
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    p.gc_stalls += cluster.osd_ssd(i).gc_stalls();
  }
  return p;
}

/// One workload across both backends; returns {file, flash} IOPS.
std::pair<double, double> compare(const char* workload_name, client::WorkloadSpec spec,
                                  bool sustained) {
  std::printf("\n--- %s (%s state, 16 OSDs) ---\n", workload_name,
              sustained ? "sustained" : "clean");
  Table t({"backend", "IOPS", "vs file", "mean ms", "p99 ms", "max node CPU", "syscalls",
           "gc stalls"});
  double file_iops = 0.0, flash_iops = 0.0;
  for (const store::Backend backend : {store::Backend::kFile, store::Backend::kFlash}) {
    const Point p = run_backend(backend, spec, sustained);
    if (backend == store::Backend::kFile) {
      file_iops = p.iops;
    } else {
      flash_iops = p.iops;
    }
    t.row({store::backend_name(backend), Table::kiops(p.iops),
           file_iops > 0 ? Table::num(p.iops / file_iops, 2) + "x" : "-",
           Table::num(p.lat_ms, 2), Table::num(p.p99_ms, 2), Table::num(p.cpu, 2),
           std::to_string(p.syscalls), std::to_string(p.gc_stalls)});
  }
  t.print();
  return {file_iops, flash_iops};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Fig.16: object-store backend ladder (FileStore vs FlashStore)%s\n",
              smoke ? " [smoke]" : "");

  auto headline = client::WorkloadSpec::rand_write(4096, 8);
  if (smoke) {
    headline.warmup = 300 * kMillisecond;
    headline.runtime = 2000 * kMillisecond;
    const auto [file, flash] = compare("4k_randwrite", headline, /*sustained=*/true);
    if (flash < file) {
      std::fprintf(stderr, "FAIL: flash (%.0f IOPS) < file (%.0f IOPS) on 4K random write\n",
                   flash, file);
      return 1;
    }
    std::printf("\nsmoke OK: flash (%.0fK) >= file (%.0fK) on sustained 4K random write\n",
                flash / 1e3, file / 1e3);
    return 0;
  }

  const auto [file4k, flash4k] = compare("4k_randwrite", headline, /*sustained=*/true);
  // Sub-block updates: every write is a read-modify-write candidate. The
  // file backend journals and rewrites pages; the flash backend commits the
  // payload in its deferred-write WAL and folds it into the next rewrite.
  compare("2k_randwrite", client::WorkloadSpec::rand_write(2048, 8), /*sustained=*/true);
  // Large streaming writes: both backends are bandwidth-bound; the flash
  // backend's remaining edge is the removed journal double-write.
  compare("64k_randwrite", client::WorkloadSpec::rand_write(65536, 8), /*sustained=*/true);
  // Clean state: no GC anywhere — isolates the syscall/journal savings from
  // the multi-stream GC relief.
  compare("4k_randwrite", client::WorkloadSpec::rand_write(4096, 8), /*sustained=*/false);

  std::printf(
      "\nthe flash backend removes the filesystem tax (no syscalls, no journal\n"
      "double-write) and earns the multi-stream SSD's reduced GC on small writes;\n"
      "the deferred-write WAL keeps sub-block updates one NVRAM write, not a\n"
      "read-modify-write on the data device.\n");
  if (flash4k < file4k) {
    std::fprintf(stderr, "FAIL: flash (%.0f IOPS) < file (%.0f IOPS) on 4K random write\n",
                 flash4k, file4k);
    return 1;
  }
  return 0;
}
