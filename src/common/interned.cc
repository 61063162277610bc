#include "common/interned.h"

#include <functional>

namespace afc {

InternPool::Id InternPool::find_id(std::string_view s, std::size_t h) const {
  return find_pos(index_, std::uint32_t(h), [&](Id id) { return records_[id].bytes == s; });
}

InternPool::Id InternPool::intern(std::string_view s) {
  const std::size_t h = std::hash<std::string_view>{}(s);
  if (const Id id = find_id(s, h); id != IndexSlot::kNil) {
    hits_++;
    return id;
  }
  misses_++;
  const Id id = Id(records_.size());
  records_.push_back(Record{h, arena_.copy(s)});
  index_.claim(std::uint32_t(h)) = IndexSlot{id, std::uint32_t(h)};
  return id;
}

bool InternPool::find(std::string_view s, Id& id) const {
  const Id found = find_id(s, std::hash<std::string_view>{}(s));
  if (found == IndexSlot::kNil) return false;
  id = found;
  return true;
}

}  // namespace afc
