#include "cluster/crush.h"

#include <algorithm>
#include <cmath>

namespace afc::cluster {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

void Crush::add_osd(std::uint32_t id, std::uint32_t host, double weight) {
  osds_.push_back(OsdEntry{id, host, weight, true, true});
}

void Crush::set_up(std::uint32_t id, bool up) {
  for (auto& o : osds_) {
    if (o.id == id) {
      o.up = up;
      o.in = up;
    }
  }
}

void Crush::set_up_only(std::uint32_t id, bool up) {
  for (auto& o : osds_) {
    if (o.id == id) o.up = up;
  }
}

void Crush::set_in(std::uint32_t id, bool in) {
  for (auto& o : osds_) {
    if (o.id == id) o.in = in;
  }
}

bool Crush::is_up(std::uint32_t id) const {
  for (const auto& o : osds_) {
    if (o.id == id) return o.up;
  }
  return false;
}

bool Crush::is_in(std::uint32_t id) const {
  for (const auto& o : osds_) {
    if (o.id == id) return o.in;
  }
  return false;
}

double Crush::draw(std::uint32_t pool, std::uint32_t pg, std::uint32_t osd, double weight) {
  const std::uint64_t h =
      mix((std::uint64_t(pool) << 48) ^ (std::uint64_t(pg) << 16) ^ osd ^ 0x1f3d5b79ull);
  // Map to (0,1]; ln(u) <= 0, so higher weight -> draw closer to 0 -> wins.
  const double u = (double(h >> 11) + 1.0) * 0x1.0p-53;
  return std::log(u) / weight;
}

std::vector<std::uint32_t> Crush::place(std::uint32_t pool, std::uint32_t pg,
                                        unsigned size) const {
  struct Scored {
    double score;
    const OsdEntry* osd;
  };
  std::vector<Scored> scored;
  scored.reserve(osds_.size());
  for (const auto& o : osds_) {
    if (!o.in || o.weight <= 0.0) continue;
    scored.push_back({draw(pool, pg, o.id, o.weight), &o});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.osd->id < b.osd->id;
  });

  // Host separation holds only when at least `size` distinct hosts draw;
  // counting stops there, so both host lists stay at most `size` long.
  std::vector<std::uint32_t> hosts;
  const auto seen = [](const std::vector<std::uint32_t>& v, std::uint32_t h) {
    return std::find(v.begin(), v.end(), h) != v.end();
  };
  for (const auto& s : scored) {
    if (hosts.size() >= size) break;
    if (!seen(hosts, s.osd->host)) hosts.push_back(s.osd->host);
  }
  const bool enforce_hosts = hosts.size() >= size;

  std::vector<std::uint32_t> acting;
  std::vector<std::uint32_t> used_hosts;
  for (const auto& s : scored) {
    if (acting.size() >= size) break;
    if (enforce_hosts && seen(used_hosts, s.osd->host)) continue;
    used_hosts.push_back(s.osd->host);
    acting.push_back(s.osd->id);
  }
  // If host separation left us short (all remaining share hosts), relax it.
  if (acting.size() < size) {
    for (const auto& s : scored) {
      if (acting.size() >= size) break;
      if (std::find(acting.begin(), acting.end(), s.osd->id) == acting.end()) {
        acting.push_back(s.osd->id);
      }
    }
  }
  return acting;
}

}  // namespace afc::cluster
