#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/interned.h"
#include "common/types.h"

namespace afc::trace {

/// Identity of one traced operation, carried on osd::OpCtx, net::Message and
/// fs::Transaction so every layer an op passes through can attribute spans
/// to it. `id` is the client op id (0 = untraced); `track` is the actor the
/// work runs on (a client VM or an OSD daemon) and becomes the Chrome-trace
/// "process" the span renders under.
struct Span {
  std::uint64_t id = 0;
  std::uint32_t track = 0;

  bool valid() const { return id != 0; }
};

/// Track-id encoding: clients use their client_id directly, OSD daemons are
/// offset so the two namespaces cannot collide.
inline constexpr std::uint32_t kOsdTrackBase = 0x1000000;
/// Fault-injection events render on their own track (span id = plan index).
inline constexpr std::uint32_t kFaultTrack = 0x3000000;
/// Monitor membership decisions (mark-down/up/out, map publishes) render on
/// their own track (span id = the epoch the decision produced).
inline constexpr std::uint32_t kMonTrack = 0x4000000;
inline std::uint32_t client_track(std::uint64_t client_id) { return std::uint32_t(client_id); }
inline std::uint32_t osd_track(std::uint32_t osd_id) { return kOsdTrackBase + osd_id; }

/// Op-level trace collector: a ring buffer of completed spans plus one
/// latency histogram per stage, fed by instrumentation sites across net/,
/// osd/, fs/ and kv/. Exports (a) Chrome trace-event JSON loadable in
/// chrome://tracing / Perfetto and (b) per-stage histograms, so any bench
/// can print a Fig.-3-style breakdown without hardcoding the pipeline.
///
/// Opt-in and zero-cost when off: every site guards on `Collector::active()`
/// (one static pointer load); nothing is installed unless AFC_SIM_TRACE is
/// set (or a test installs a collector explicitly). The collector never
/// schedules simulator events, so enabling tracing cannot change simulated
/// results — only observe them.
///
/// Timestamps are supplied by callers in sim-time ns. Single-threaded: every
/// site runs on the simulator's one thread, so nothing here locks.
class Collector {
 public:
  using StageId = InternPool::Id;

  struct Config {
    /// Completed spans kept for JSON export (oldest overwritten first, like
    /// a flight recorder). Histograms and counters always see every span.
    std::size_t ring_capacity = 1u << 20;
  };

  Collector();
  explicit Collector(Config cfg);

  // --- global installation ----------------------------------------------
  /// The currently installed collector, or nullptr when tracing is off.
  static Collector* active() { return active_; }
  /// Install `c` as the process-wide collector (nullptr to disable).
  static void install(Collector* c) { active_ = c; }
  /// True when the AFC_SIM_TRACE environment variable requests tracing.
  static bool env_requested();
  /// True when AFC_SIM_PROFILE requests the event-loop profiler (not a
  /// collector, but read by the same rule: set, non-empty and not "0").
  static bool profile_requested();

  // --- span recording ----------------------------------------------------
  /// Intern a stage name (a string from common/stage_names.h) to its id.
  StageId stage_id(const char* name);

  /// Open a span: (span.id, stage, span.track) must not already be open.
  /// A second begin on an open key is counted in `mismatched()` and replaces
  /// the first. Invalid spans (id 0) are ignored.
  void begin(const Span& span, StageId stage, Time now);
  /// Close a span opened by begin(); records the completed span. An end with
  /// no matching begin is counted in `mismatched()` and dropped.
  void end(const Span& span, StageId stage, Time now);
  /// Record a self-contained span in one call (no pairing state).
  void complete(const Span& span, StageId stage, Time begin, Time end);
  /// Record a zero-duration instant marker.
  void instant(const Span& span, StageId stage, Time at);

  /// Label a track (becomes the Chrome-trace process name, e.g. "osd.3").
  void name_track(std::uint32_t track, std::string name);

  // --- introspection -----------------------------------------------------
  std::uint64_t spans_recorded() const { return recorded_; }
  std::uint64_t spans_dropped() const { return dropped_; }
  /// begin-on-open-key + end-without-begin occurrences (should be 0).
  std::uint64_t mismatched() const { return mismatched_; }
  /// Spans begun but not yet ended.
  std::size_t open_spans() const { return open_.size(); }

  /// Per-stage latency histogram (empty histogram if the stage never fired).
  const Histogram& stage_histogram(const char* name) const;
  double stage_mean_ms(const char* name) const { return stage_histogram(name).mean_ms(); }
  std::uint64_t stage_count(const char* name) const { return stage_histogram(name).count(); }

  // --- export ------------------------------------------------------------
  /// Chrome trace-event JSON (JSON-object format with a traceEvents array;
  /// "X" complete events, pid = track, tid = op id, ts/dur in microseconds).
  /// Deterministic: same spans in, byte-identical JSON out.
  void export_chrome_json(std::ostream& os) const;
  /// Convenience: export to a file path. Returns false on open failure.
  bool export_chrome_json_file(const std::string& path) const;

  /// Fig.-3-style per-stage summary table (stage, count, mean ms) over every
  /// stage that fired, in first-interned order.
  std::string summary() const;

 private:
  struct Event {
    std::uint64_t id;
    StageId stage;
    std::uint32_t track;
    Time begin;
    Time dur;
  };
  struct OpenKey {
    std::uint64_t id;
    StageId stage;
    std::uint32_t track;
    bool operator==(const OpenKey&) const = default;
  };
  struct OpenKeyHash {
    std::size_t operator()(const OpenKey& k) const {
      std::size_t h = std::size_t(k.id) * 0x9e3779b97f4a7c15ull;
      h ^= (std::size_t(k.stage) << 32) | k.track;
      return h;
    }
  };

  void record(const Span& span, StageId stage, Time begin, Time dur);

  static Collector* active_;

  Config cfg_;
  InternPool stages_;
  std::vector<Event> ring_;
  std::size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
  std::unordered_map<OpenKey, Time, OpenKeyHash> open_;
  std::unordered_map<StageId, Histogram> hists_;
  std::unordered_map<std::uint32_t, std::string> track_names_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace afc::trace
