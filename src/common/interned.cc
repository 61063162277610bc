#include "common/interned.h"

#include <functional>

namespace afc {

std::size_t InternPool::probe(std::string_view s, std::size_t h) const {
  std::size_t i = h & mask_;
  for (;; i = (i + 1) & mask_) {
    const Id id = slots_[i];
    if (id == kNil) return i;
    const Record& r = records_[id];
    if (r.hash == h && r.bytes == s) return i;
  }
}

InternPool::Id InternPool::intern(std::string_view s) {
  if ((records_.size() + 1) * 4 > slots_.size() * 3) grow_index();
  const std::size_t h = std::hash<std::string_view>{}(s);
  const std::size_t i = probe(s, h);
  if (slots_[i] != kNil) {
    hits_++;
    return slots_[i];
  }
  misses_++;
  const Id id = Id(records_.size());
  records_.push_back(Record{h, arena_.copy(s)});
  slots_[i] = id;
  return id;
}

bool InternPool::find(std::string_view s, Id& id) const {
  if (records_.empty()) return false;
  const std::size_t i = probe(s, std::hash<std::string_view>{}(s));
  if (slots_[i] == kNil) return false;
  id = slots_[i];
  return true;
}

void InternPool::grow_index() {
  std::vector<Id> old(slots_.empty() ? 16 : slots_.size() * 2, kNil);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Id id : old) {
    if (id == kNil) continue;
    std::size_t i = records_[id].hash & mask_;
    while (slots_[i] != kNil) i = (i + 1) & mask_;
    slots_[i] = id;
  }
}

}  // namespace afc
