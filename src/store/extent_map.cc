#include "store/extent_map.h"

#include <algorithm>

namespace afc::store {

ExtentMap::Object* ExtentMap::find(const fs::ObjectId& oid) {
  auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

const ExtentMap::Object* ExtentMap::find(const fs::ObjectId& oid) const {
  auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

ExtentMap::Object& ExtentMap::get_or_create(const fs::ObjectId& oid) {
  return objects_[oid];
}

std::vector<fs::ObjectId> ExtentMap::objects_in_pg(std::uint32_t pg) const {
  std::vector<fs::ObjectId> out;
  for (const auto& [oid, obj] : objects_) {
    if (oid.pg == pg) out.push_back(oid);
  }
  return out;
}

void ExtentMap::write_extent(Object& obj, std::uint64_t off, Payload data) {
  const std::uint64_t end = off + data.size();
  if (data.size() == 0) return;
  // Remove / trim extents overlapping [off, end).
  auto it = obj.extents.lower_bound(off);
  if (it != obj.extents.begin()) {
    auto prev = std::prev(it);
    const std::uint64_t pstart = prev->first;
    const std::uint64_t pend = pstart + prev->second.data.size();
    if (pend > off) {
      // Previous extent overlaps from the left: keep its head, and if it
      // extends past our end, keep its tail too.
      Extent tail{};
      const bool has_tail = pend > end;
      if (has_tail) tail = make_extent(prev->second.data.slice(end - pstart, pend - end));
      prev->second = make_extent(prev->second.data.slice(0, off - pstart));
      if (prev->second.data.size() == 0) obj.extents.erase(prev);
      if (has_tail) obj.extents.emplace(end, std::move(tail));
    }
  }
  // Drop the extents [off, end) covers whole, in one erase, then trim the
  // one that extends past `end`, if any.
  it = obj.extents.lower_bound(off);
  auto covered = it;
  while (covered != obj.extents.end() && covered->first + covered->second.data.size() <= end) {
    ++covered;
  }
  it = obj.extents.erase(it, covered);
  if (it != obj.extents.end() && it->first < end) {
    const std::uint64_t estart = it->first;
    const std::uint64_t eend = estart + it->second.data.size();
    Extent tail = make_extent(it->second.data.slice(end - estart, eend - end));
    obj.extents.erase(it);
    obj.extents.emplace(end, std::move(tail));
  }
  obj.extents.emplace(off, make_extent(std::move(data)));
  if (end > obj.size) obj.size = end;
}

std::vector<std::uint8_t> ExtentMap::assemble(const Object& obj, std::uint64_t off,
                                              std::uint64_t n) {
  std::vector<std::uint8_t> out(n, 0);
  for (const auto& [estart, ext] : obj.extents) {
    const std::uint64_t eend = estart + ext.data.size();
    if (eend <= off || estart >= off + n) continue;
    const std::uint64_t from = std::max(estart, off);
    const std::uint64_t to = std::min(eend, off + n);
    auto piece = ext.data.slice(from - estart, to - from).materialize();
    std::copy(piece.begin(), piece.end(), out.begin() + long(from - off));
  }
  return out;
}

std::uint64_t ExtentMap::fingerprint(const fs::ObjectId& oid) const {
  const Object* obj = find(oid);
  if (obj == nullptr) return 0;
  std::uint64_t h = 0xcbf29ce484222325ull ^ obj->size;
  for (const auto& [off, ext] : obj->extents) {
    h ^= off + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= ext.data.fingerprint() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

bool ExtentMap::corrupt(const fs::ObjectId& oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || it->second.extents.empty()) return false;
  auto& ext = it->second.extents.begin()->second;
  auto bytes = ext.data.materialize();
  if (bytes.empty()) return false;
  bytes[bytes.size() / 2] ^= 0x5a;
  // Bypasses make_extent on purpose: the recorded csum goes stale, exactly
  // like media rot under a checksum written at write time.
  ext.data = Payload::bytes(std::move(bytes));
  return true;
}

bool ExtentMap::verify(const fs::ObjectId& oid) const {
  const Object* obj = find(oid);
  if (obj == nullptr) return true;
  for (const auto& [off, ext] : obj->extents) {
    if (ext.data.fingerprint() != ext.csum) return false;
  }
  return true;
}

ObjectExport ExtentMap::export_object(const fs::ObjectId& oid) const {
  ObjectExport out;
  const Object* obj = find(oid);
  if (obj == nullptr) return out;
  out.size = obj->size;
  for (const auto& [off, ext] : obj->extents) out.extents.emplace_back(off, ext.data);
  for (const auto& [k, v] : obj->xattrs) out.xattrs.emplace_back(k, v);
  return out;
}

}  // namespace afc::store
