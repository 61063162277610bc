// Op-tracing tests: span pairing enforcement, zero-effect when disabled,
// byte-identical JSON export across same-seed runs, and agreement between
// the collector's stage histograms and the OSDs' own Fig. 3 breakdown.

#include <gtest/gtest.h>

#include <sstream>

#include "common/stage_names.h"
#include "core/cluster_sim.h"
#include "core/trace.h"

namespace afc {
namespace {

core::ClusterConfig trace_cluster() {
  core::ClusterConfig cfg;
  cfg.profile = core::Profile::afceph();
  cfg.osd_nodes = 2;
  cfg.osds_per_node = 2;
  cfg.client_nodes = 1;
  cfg.vms = 2;
  cfg.pg_num = 64;
  cfg.image_size = 256 * kMiB;
  cfg.sustained = false;
  return cfg;
}

client::WorkloadSpec small_mixed() {
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.write_fraction = 0.75;  // cover both osd.write_op and osd.read_op
  spec.warmup = 20 * kMillisecond;
  spec.runtime = 150 * kMillisecond;
  return spec;
}

/// Scoped install/uninstall so one test cannot leak a collector into the
/// next (the active collector is process-global).
struct ScopedCollector {
  trace::Collector c;
  explicit ScopedCollector(trace::Collector::Config cfg = {}) : c(cfg) {
    trace::Collector::install(&c);
  }
  ~ScopedCollector() { trace::Collector::install(nullptr); }
};

TEST(TraceCollector, BeginEndPairingEnforced) {
  trace::Collector c;
  const auto stage = c.stage_id(stage::kWriteOp);
  const trace::Span span{42, trace::osd_track(1)};

  c.begin(span, stage, 1000);
  EXPECT_EQ(c.open_spans(), 1u);
  c.end(span, stage, 5000);
  EXPECT_EQ(c.open_spans(), 0u);
  EXPECT_EQ(c.spans_recorded(), 1u);
  EXPECT_EQ(c.mismatched(), 0u);
  EXPECT_EQ(c.stage_histogram(stage::kWriteOp).max(), 4000u);

  // end without a begin: counted, dropped.
  c.end(span, stage, 6000);
  EXPECT_EQ(c.mismatched(), 1u);
  EXPECT_EQ(c.spans_recorded(), 1u);

  // double begin on the same key: counted; the later begin wins.
  c.begin(span, stage, 7000);
  c.begin(span, stage, 8000);
  EXPECT_EQ(c.mismatched(), 2u);
  c.end(span, stage, 9000);
  EXPECT_EQ(c.spans_recorded(), 2u);
  EXPECT_EQ(c.stage_histogram(stage::kWriteOp).max(), 4000u);  // 9000-8000, not -7000

  // invalid spans (id 0) are ignored entirely.
  c.begin(trace::Span{}, stage, 100);
  EXPECT_EQ(c.open_spans(), 0u);
}

TEST(TraceCollector, RingOverwritesOldestButHistogramsSeeAll) {
  trace::Collector::Config cfg;
  cfg.ring_capacity = 4;
  trace::Collector c(cfg);
  const auto stage = c.stage_id(stage::kKvWrite);
  for (std::uint64_t i = 1; i <= 10; i++) {
    c.complete(trace::Span{i, trace::osd_track(0)}, stage, i * 100, i * 100 + 50);
  }
  EXPECT_EQ(c.spans_recorded(), 10u);
  EXPECT_EQ(c.spans_dropped(), 6u);
  EXPECT_EQ(c.stage_count(stage::kKvWrite), 10u);  // histograms never drop
  std::ostringstream os;
  c.export_chrome_json(os);
  // Only the 4 newest spans survive in the JSON (flight recorder).
  EXPECT_EQ(os.str().find("\"op\":6"), std::string::npos);
  EXPECT_NE(os.str().find("\"op\":7"), std::string::npos);
  EXPECT_NE(os.str().find("\"op\":10"), std::string::npos);
}

TEST(TraceCluster, DisabledTracingAddsNoEventsAndChangesNothing) {
  ASSERT_EQ(trace::Collector::active(), nullptr);
  const auto spec = small_mixed();

  core::ClusterSim plain(trace_cluster());
  const auto base = plain.run(spec);
  const std::uint64_t base_events = plain.simulation().executed_events();

  // Same seed, tracing on: the collector observes but never schedules, so
  // the simulation executes the identical event sequence and every reported
  // number is bit-identical.
  ScopedCollector sc;
  core::ClusterSim traced_cluster(trace_cluster());
  const auto traced = traced_cluster.run(spec);

  EXPECT_EQ(traced_cluster.simulation().executed_events(), base_events);
  EXPECT_EQ(traced.write_iops, base.write_iops);
  EXPECT_EQ(traced.read_iops, base.read_iops);
  EXPECT_EQ(traced.write_lat_ms, base.write_lat_ms);
  EXPECT_EQ(traced.read_lat_ms, base.read_lat_ms);
  EXPECT_EQ(traced.pg_lock_wait_ns, base.pg_lock_wait_ns);
  EXPECT_GT(sc.c.spans_recorded(), 0u);
  EXPECT_EQ(sc.c.mismatched(), 0u);
}

TEST(TraceCluster, SameSeedRunsProduceByteIdenticalJson) {
  auto run_one = [](std::string& json_out) {
    ScopedCollector sc;
    core::ClusterSim cluster(trace_cluster());
    cluster.run(small_mixed());
    std::ostringstream os;
    sc.c.export_chrome_json(os);
    json_out = os.str();
    return sc.c.spans_recorded();
  };
  std::string a, b;
  const auto spans_a = run_one(a);
  const auto spans_b = run_one(b);
  EXPECT_GT(spans_a, 0u);
  EXPECT_EQ(spans_a, spans_b);
  EXPECT_EQ(a, b);  // fixed seed -> byte-identical trace

  // Basic Chrome trace-event shape (full JSON validation is in check.sh).
  EXPECT_EQ(a.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(a.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(a.find(stage::kClientIo), std::string::npos);
  EXPECT_NE(a.find(stage::kNetWire), std::string::npos);
  EXPECT_NE(a.find(stage::kJournalWrite), std::string::npos);
  EXPECT_EQ(a.substr(a.size() - 3), "]}\n");
}

TEST(TraceCluster, CollectorStagesMatchOsdBreakdown) {
  // Tracing is installed before the cluster is built, so the collector sees
  // exactly the spans the OSDs mirror from their Fig. 3 boundary stamps: the
  // per-stage means and counts must equal RunResult's merged histograms.
  ScopedCollector sc;
  core::ClusterSim cluster(trace_cluster());
  auto spec = client::WorkloadSpec::rand_write(4096, 4);
  spec.warmup = 20 * kMillisecond;
  spec.runtime = 150 * kMillisecond;
  const auto r = cluster.run(spec);

  Histogram merged_total;
  std::uint64_t osd_counts[osd::kStageCount] = {};
  for (std::size_t i = 0; i < cluster.osd_count(); i++) {
    merged_total.merge(cluster.osd(i).write_total_hist());
    for (unsigned s = 1; s < osd::kStageCount; s++) {
      osd_counts[s] += cluster.osd(i).stage_delta(s).count();
    }
  }
  ASSERT_GT(merged_total.count(), 0u);
  for (unsigned s = 1; s < osd::kStageCount; s++) {
    EXPECT_EQ(sc.c.stage_count(kWriteStageNames[s]), osd_counts[s]) << kWriteStageNames[s];
    EXPECT_EQ(sc.c.stage_mean_ms(kWriteStageNames[s]), r.stage_ms[s]) << kWriteStageNames[s];
  }
  EXPECT_EQ(sc.c.stage_count(stage::kWriteOp), merged_total.count());
  EXPECT_EQ(sc.c.stage_mean_ms(stage::kWriteOp), r.write_path_total_ms);
  EXPECT_EQ(sc.c.mismatched(), 0u);
}

}  // namespace
}  // namespace afc
