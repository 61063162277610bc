#include "core/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

namespace afc::trace {

Collector* Collector::active_ = nullptr;

Collector::Collector() : Collector(Config{}) {}

Collector::Collector(Config cfg) : cfg_(cfg) { ring_.reserve(cfg_.ring_capacity); }

namespace {
bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}
}  // namespace

bool Collector::env_requested() { return env_flag("AFC_SIM_TRACE"); }

bool Collector::profile_requested() { return env_flag("AFC_SIM_PROFILE"); }

Collector::StageId Collector::stage_id(const char* name) {
  return stages_.intern(name);
}

void Collector::record(const Span& span, StageId stage, Time begin, Time dur) {
  recorded_++;
  hists_[stage].record(dur);
  if (ring_.size() < cfg_.ring_capacity) {
    ring_.push_back(Event{span.id, stage, span.track, begin, dur});
    return;
  }
  // Flight-recorder ring: overwrite the oldest completed span.
  dropped_++;
  ring_wrapped_ = true;
  ring_[ring_next_] = Event{span.id, stage, span.track, begin, dur};
  ring_next_ = (ring_next_ + 1) % cfg_.ring_capacity;
}

void Collector::begin(const Span& span, StageId stage, Time now) {
  if (!span.valid()) return;
  auto [it, inserted] = open_.emplace(OpenKey{span.id, stage, span.track}, now);
  if (!inserted) {
    mismatched_++;
    it->second = now;  // replace: the later begin wins
  }
}

void Collector::end(const Span& span, StageId stage, Time now) {
  if (!span.valid()) return;
  auto it = open_.find(OpenKey{span.id, stage, span.track});
  if (it == open_.end()) {
    mismatched_++;
    return;
  }
  const Time t0 = it->second;
  open_.erase(it);
  record(span, stage, t0, now >= t0 ? now - t0 : 0);
}

void Collector::complete(const Span& span, StageId stage, Time begin, Time end) {
  if (!span.valid()) return;
  record(span, stage, begin, end >= begin ? end - begin : 0);
}

void Collector::instant(const Span& span, StageId stage, Time at) {
  complete(span, stage, at, at);
}

void Collector::name_track(std::uint32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

const Histogram& Collector::stage_histogram(const char* name) const {
  static const Histogram kEmpty;
  InternPool::Id id;
  if (!stages_.find(name, id)) return kEmpty;
  auto it = hists_.find(id);
  return it == hists_.end() ? kEmpty : it->second;
}

void Collector::export_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  // Track labels first (metadata events are position-independent, but a
  // stable order keeps the export byte-deterministic).
  {
    std::map<std::uint32_t, const std::string*> ordered;
    for (const auto& [track, name] : track_names_) ordered.emplace(track, &name);
    for (const auto& [track, name] : ordered) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                    "\"args\":{\"name\":\"%s\"}}",
                    first ? "" : ",", track, name->c_str());
      os << buf;
      first = false;
    }
  }
  // Completed spans, oldest first. ts/dur are microseconds (Chrome's unit);
  // three decimals keep full nanosecond precision exactly.
  auto emit = [&](const Event& e) {
    const std::string_view stage = stages_.lookup(e.stage);
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%.*s\",\"cat\":\"afc\",\"ph\":\"X\",\"pid\":%u,"
                  "\"tid\":%llu,\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,"
                  "\"args\":{\"op\":%llu}}",
                  first ? "" : ",", int(stage.size()), stage.data(), e.track,
                  static_cast<unsigned long long>(e.id),
                  static_cast<unsigned long long>(e.begin / 1000),
                  static_cast<unsigned long long>(e.begin % 1000),
                  static_cast<unsigned long long>(e.dur / 1000),
                  static_cast<unsigned long long>(e.dur % 1000),
                  static_cast<unsigned long long>(e.id));
    os << buf;
    first = false;
  };
  if (ring_wrapped_) {
    for (std::size_t i = ring_next_; i < ring_.size(); i++) emit(ring_[i]);
    for (std::size_t i = 0; i < ring_next_; i++) emit(ring_[i]);
  } else {
    for (const Event& e : ring_) emit(e);
  }
  os << "\n]}\n";
}

bool Collector::export_chrome_json_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return false;
  export_chrome_json(out);
  return out.good();
}

std::string Collector::summary() const {
  std::ostringstream os;
  char buf[160];
  os << "stage                             count      mean (ms)\n";
  for (StageId id = 0; id < StageId(stages_.size()); id++) {
    auto it = hists_.find(id);
    if (it == hists_.end() || it->second.count() == 0) continue;
    const std::string_view stage = stages_.lookup(id);
    std::snprintf(buf, sizeof(buf), "%-32.*s %7llu %12.3f\n", int(stage.size()), stage.data(),
                  static_cast<unsigned long long>(it->second.count()), it->second.mean_ms());
    os << buf;
  }
  return os.str();
}

}  // namespace afc::trace
