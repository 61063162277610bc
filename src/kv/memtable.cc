#include "kv/memtable.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

namespace afc::kv {

Value Value::real(std::string_view d) {
  Value v;
  if (d.empty()) return v;
  v.bytes_ = static_cast<Bytes*>(::operator new(sizeof(Bytes) + d.size()));
  *v.bytes_ = Bytes{1, std::uint32_t(d.size())};
  std::memcpy(v.bytes_ + 1, d.data(), d.size());
  return v;
}

std::uint32_t MemTable::find(std::string_view key, std::uint32_t h) const {
  return find_pos(index_, h, [&](std::uint32_t i) { return at(i).key() == key; });
}

MemEntry& MemTable::find_or_append(std::string_view key, bool& appended) {
  const auto h = std::uint32_t(std::hash<std::string_view>{}(key));
  const std::uint32_t found = find(key, h);
  appended = found == IndexSlot::kNil;
  if (!appended) return at(found);
  const auto idx = std::uint32_t(index_.size());
  if ((idx & kChunkMask) == 0) chunks_.push_back(std::make_unique<MemEntry[]>(kChunkMask + 1));
  index_.claim(h) = IndexSlot{idx, h};
  MemEntry& e = at(idx);
  const std::string_view stored = keys_.copy(key);
  e.key_data = stored.data();
  e.key_len = std::uint32_t(stored.size());
  return e;
}

void MemTable::write(std::string_view key, Value v, std::uint64_t seq, EntryType type) {
  bool appended = false;
  MemEntry& e = find_or_append(key, appended);
  if (!appended) bytes_ -= e.encoded_size();
  e.value = std::move(v);
  e.seq = seq;
  e.type = type;
  bytes_ += e.encoded_size();
}

void MemTable::put(std::string_view key, Value v, std::uint64_t seq) {
  write(key, std::move(v), seq, EntryType::kPut);
}

void MemTable::del(std::string_view key, std::uint64_t seq) {
  write(key, Value{}, seq, EntryType::kDelete);
}

const MemEntry* MemTable::get(std::string_view key) const {
  const std::uint32_t i = find(key, std::uint32_t(std::hash<std::string_view>{}(key)));
  return i == IndexSlot::kNil ? nullptr : &at(i);
}

void MemTable::sort_pending() const {
  const std::size_t merged = sorted_.size();
  if (merged == count()) return;
  for (std::size_t i = merged; i < count(); i++) sorted_.push_back(std::uint32_t(i));
  const auto by_key = [this](std::uint32_t x, std::uint32_t y) {
    return at(x).key() < at(y).key();
  };
  std::sort(sorted_.begin() + std::ptrdiff_t(merged), sorted_.end(), by_key);
  std::inplace_merge(sorted_.begin(), sorted_.begin() + std::ptrdiff_t(merged), sorted_.end(),
                     by_key);
}

std::vector<Entry> MemTable::dump() const {
  sort_pending();
  std::vector<Entry> out;
  out.reserve(count());
  for (std::uint32_t i : sorted_) {
    const MemEntry& e = at(i);
    out.push_back(Entry{std::string(e.key()), e.value, e.seq, e.type});
  }
  return out;
}

const MemEntry* MemTable::seek(std::string_view from) const {
  sort_pending();
  auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), from,
      [this](std::uint32_t i, std::string_view k) { return at(i).key() < k; });
  return it == sorted_.end() ? nullptr : &at(*it);
}

const MemEntry* MemTable::next(const MemEntry* e) const {
  sort_pending();
  auto it = std::upper_bound(
      sorted_.begin(), sorted_.end(), e->key(),
      [this](std::string_view k, std::uint32_t i) { return k < at(i).key(); });
  return it == sorted_.end() ? nullptr : &at(*it);
}

}  // namespace afc::kv
