#include "core/bench_json.h"

#include "core/cluster_sim.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

namespace afc::core {

namespace {

constexpr const char* kHeader = "{\"schema\":\"afc-bench-v1\",\"runs\":[";
constexpr const char* kFooter = "]}\n";

/// Minimal JSON string escaping for the label/name fields we emit (no
/// control characters expected; quotes and backslashes handled).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string format_record(const BenchRecord& r) {
  std::ostringstream os;
  os << "{\"bench\":\"" << escape(r.bench) << "\",\"config\":\"" << escape(r.config) << "\"";
  if (const char* label = std::getenv("AFC_BENCH_LABEL"); label != nullptr && label[0] != '\0') {
    os << ",\"label\":\"" << escape(label) << "\"";
  }
  os << ",\"utc\":" << std::time(nullptr);
  os << ",\"nodes\":" << r.nodes << ",\"osds\":" << r.osds;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", r.value);
  os << ",\"metric\":\"" << escape(r.metric) << "\",\"value\":" << buf;
  std::snprintf(buf, sizeof buf, "%.1f", r.wall_ms);
  os << ",\"wall_ms\":" << buf;
  os << ",\"events\":" << r.events;
  std::snprintf(buf, sizeof buf, "%.6g", r.events_per_wall_sec);
  os << ",\"events_per_wall_sec\":" << buf;
  os << ",\"sim_ns\":" << r.sim_ns;
  std::snprintf(buf, sizeof buf, "%.4g", r.sim_ns_per_wall_ns);
  os << ",\"sim_ns_per_wall_ns\":" << buf;
  std::snprintf(buf, sizeof buf, "%.3f", r.max_node_cpu);
  os << ",\"max_node_cpu\":" << buf << "}";
  return os.str();
}

}  // namespace

bool BenchJson::enabled() {
  const char* p = std::getenv("AFC_BENCH_JSON");
  return p != nullptr && p[0] != '\0';
}

std::string BenchJson::path() {
  const char* p = std::getenv("AFC_BENCH_JSON");
  return p != nullptr ? p : "";
}

bool BenchJson::record(const BenchRecord& rec) {
  if (!enabled()) return true;
  const std::string file = path();
  std::string body;
  {
    std::ifstream in(file, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      body = ss.str();
    }
  }
  if (body.empty()) {
    body = std::string(kHeader) + kFooter;
  }
  // Splice before the closing "]}" of our own format; anything else is a
  // foreign file we refuse to clobber.
  const std::size_t cut = body.rfind(kFooter);
  if (body.rfind(kHeader, 0) != 0 || cut == std::string::npos) {
    std::fprintf(stderr, "BenchJson: %s is not an afc-bench-v1 file; record dropped\n",
                 file.c_str());
    return false;
  }
  const bool first = cut > 0 && body[cut - 1] == '[';
  std::string entry = first ? "\n" : ",\n";
  entry += format_record(rec);
  entry += "\n";
  body.insert(cut, entry);
  // Crash-safe append: write the whole document to a sibling temp file and
  // rename it into place. A crash (or fault-injected kill) mid-write leaves
  // either the old complete file or the new complete file, never a torn one.
  const std::string tmp = file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !(out << body) || !out.flush()) {
      std::fprintf(stderr, "BenchJson: failed writing %s\n", tmp.c_str());
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), file.c_str()) != 0) {
    std::fprintf(stderr, "BenchJson: failed renaming %s into place\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool record_run(const std::string& bench, const std::string& config, ClusterSim& cluster,
                const std::string& metric, double value,
                std::chrono::steady_clock::time_point wall0, double max_node_cpu) {
  if (!BenchJson::enabled()) return true;
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - wall0)
          .count();
  BenchRecord rec;
  rec.bench = bench;
  rec.config = config;
  rec.nodes = cluster.config().osd_nodes;
  rec.osds = cluster.config().osd_nodes * cluster.config().osds_per_node;
  rec.metric = metric;
  rec.value = value;
  rec.wall_ms = wall_ms;
  rec.events = cluster.simulation().executed_events();
  rec.events_per_wall_sec = wall_ms > 0 ? double(rec.events) / (wall_ms / 1e3) : 0;
  rec.sim_ns = cluster.simulation().now();
  rec.sim_ns_per_wall_ns = wall_ms > 0 ? double(rec.sim_ns) / (wall_ms * 1e6) : 0;
  rec.max_node_cpu = max_node_cpu;
  return BenchJson::record(rec);
}

}  // namespace afc::core
