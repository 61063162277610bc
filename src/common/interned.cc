#include "common/interned.h"

#include <functional>

namespace afc {

InternPool::Id InternPool::find_id(std::string_view s, std::size_t h) const {
  return find_pos(index_, std::uint32_t(h), [&](Id id) { return records_[id].bytes == s; });
}

InternPool::Id InternPool::intern(std::string_view s) {
  const std::size_t h = std::hash<std::string_view>{}(s);
  const auto h32 = std::uint32_t(h);
  const DenseIndex::Probe p =
      probe_pos(index_, h32, [&](Id id) { return records_[id].bytes == s; });
  if (p.found) {
    hits_++;
    return index_[p.slot].pos;
  }
  misses_++;
  const Id id = Id(records_.size());
  records_.push_back(Record{h, arena_.copy(s)});
  index_.claim(h32, p) = IndexSlot{id, h32};
  return id;
}

bool InternPool::find(std::string_view s, Id& id) const {
  const Id found = find_id(s, std::hash<std::string_view>{}(s));
  if (found == IndexSlot::kNil) return false;
  id = found;
  return true;
}

}  // namespace afc
