#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace afc::core {

class ClusterSim;

/// One datapoint of the perf trajectory: a bench rung's simulated result
/// plus the wall-clock cost of computing it. Committed BENCH_*.json files
/// accumulate these across PRs so simulator-performance regressions show up
/// as a trajectory, not an anecdote.
struct BenchRecord {
  std::string bench;   // harness name, e.g. "fig12_scaleout"
  std::string config;  // rung/workload, e.g. "afceph/4k_randread" or "sharded+batched"
  unsigned nodes = 0;
  unsigned osds = 0;
  std::string metric;  // "iops", "mb_per_s", ...
  double value = 0.0;
  double wall_ms = 0.0;            // wall-clock for this rung
  std::uint64_t events = 0;        // simulator events executed
  double events_per_wall_sec = 0;  // events / wall seconds (sim throughput)
  Time sim_ns = 0;                 // virtual time simulated
  double sim_ns_per_wall_ns = 0;   // slowdown factor (>1 = faster than real time)
  double max_node_cpu = 0.0;       // hottest simulated node, utilization 0..1
};

/// Appender for the repo-root BENCH_*.json trajectory files. Opt-in via
/// AFC_BENCH_JSON=<path>: when unset, record() is a no-op, so benches can
/// call it unconditionally. The file is self-contained JSON —
/// `{"schema":"afc-bench-v1","runs":[...]}` — validated by check.sh with
/// `python3 -m json.tool`; append splices into our own format only, and a
/// corrupt/foreign file is reported, not overwritten. Appends are
/// crash-safe: the updated document is written to a `.tmp` sibling and
/// renamed into place, so an interrupted run never leaves a torn file. AFC_BENCH_LABEL, when
/// set, stamps each record (e.g. a PR number) so trajectories across
/// commits stay attributable.
class BenchJson {
 public:
  /// True when AFC_BENCH_JSON names a destination file.
  static bool enabled();
  static std::string path();

  /// Append one record to the trajectory file (created on first use).
  /// Returns false (with a stderr note) on IO failure or a file that is not
  /// an afc-bench-v1 document; no-op true when disabled.
  static bool record(const BenchRecord& rec);
};

/// Record one bench rung: `metric` = `value` for `bench`/`config`, with the
/// cluster's shape, events executed and simulated time, and the wall time
/// since `wall0`. No-op (true) unless BenchJson::enabled().
bool record_run(const std::string& bench, const std::string& config, ClusterSim& cluster,
                const std::string& metric, double value,
                std::chrono::steady_clock::time_point wall0, double max_node_cpu = 0.0);

}  // namespace afc::core
