#include "kv/memtable.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

namespace afc::kv {

namespace {

std::uint32_t key_hash(std::string_view key) {
  return std::uint32_t(std::hash<std::string_view>{}(key));
}

}  // namespace

Value Value::real(std::string_view d) {
  Value v;
  if (d.empty()) return v;
  v.bytes_ = static_cast<Bytes*>(::operator new(sizeof(Bytes) + d.size()));
  *v.bytes_ = Bytes{1, std::uint32_t(d.size())};
  std::memcpy(v.bytes_ + 1, d.data(), d.size());
  return v;
}

std::size_t MemTable::probe(std::string_view key, std::uint32_t h) const {
  std::size_t i = h & mask_;
  while (slots_[i].entry != kNil && !(slots_[i].hash == h && at(slots_[i].entry).key() == key)) {
    i = (i + 1) & mask_;
  }
  return i;
}

MemEntry& MemTable::find_or_append(std::string_view key, bool& appended) {
  if ((count_ + 1) * 4 > slots_.size() * 3) grow_index();
  const std::uint32_t h = key_hash(key);
  const std::size_t i = probe(key, h);
  appended = slots_[i].entry == kNil;
  if (!appended) return at(slots_[i].entry);
  const auto idx = std::uint32_t(count_++);
  if ((idx & kChunkMask) == 0) chunks_.push_back(std::make_unique<MemEntry[]>(kChunkMask + 1));
  slots_[i] = Slot{idx, h};
  MemEntry& e = at(idx);
  const std::string_view stored = keys_.copy(key);
  e.key_data = stored.data();
  e.key_len = std::uint32_t(stored.size());
  return e;
}

void MemTable::grow_index() {
  std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.entry == kNil) continue;
    std::size_t i = s.hash & mask_;
    while (slots_[i].entry != kNil) i = (i + 1) & mask_;
    slots_[i] = s;
  }
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
  if (count_ == 0) return nullptr;
  const std::size_t i = probe(key, key_hash(key));
  return slots_[i].entry == kNil ? nullptr : &at(slots_[i].entry);
}

void MemTable::sort_pending() const {
  const std::size_t merged = sorted_.size();
  if (merged == count_) return;
  for (std::size_t i = merged; i < count_; i++) sorted_.push_back(std::uint32_t(i));
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
  out.reserve(count_);
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
