#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/probe_table.h"

namespace afc {

/// Map from an integer id to V for ids that are sparse or unbounded (a
/// daemon's PG ids, op ids): the OSD's PG and in-flight tables, the
/// client's pending ops. One ProbeTable of {key, value} entries, so a
/// lookup is a multiply and a short probe with no node to chase, and an
/// empty map allocates nothing. Id ~0 is reserved (it marks an empty
/// slot). Entries move when the table grows and on erase: a pointer from
/// `find` or a reference from `operator[]` lasts only until the next
/// insertion or erase, and iteration order is unspecified.
template <class V>
class IdMap {
 public:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

  struct Entry {
    std::uint64_t key = kEmpty;
    V value{};
  };

  class const_iterator {
   public:
    const Entry& operator*() const { return *p_; }
    const Entry* operator->() const { return p_; }
    const_iterator& operator++() {
      ++p_;
      skip();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }

   private:
    friend class IdMap;
    const_iterator(const Entry* p, const Entry* end) : p_(p), end_(end) { skip(); }
    void skip() {
      while (p_ != end_ && p_->key == kEmpty) ++p_;
    }
    const Entry* p_;
    const Entry* end_;
  };

  const_iterator begin() const {
    const std::vector<Entry>& s = table_.slots();
    return const_iterator(s.data(), s.data() + s.size());
  }
  const_iterator end() const {
    const std::vector<Entry>& s = table_.slots();
    return const_iterator(s.data() + s.size(), s.data() + s.size());
  }

  std::size_t size() const { return table_.size(); }

  /// The value under `k`; nullptr when absent.
  V* find(std::uint64_t k) {
    const std::size_t i = index_of(k);
    return i == table_.npos ? nullptr : &table_[i].value;
  }
  const V* find(std::uint64_t k) const {
    const std::size_t i = index_of(k);
    return i == table_.npos ? nullptr : &table_[i].value;
  }

  /// Insert (k, v) unless `k` is present; an existing value is left alone.
  /// Returns whether it was inserted.
  bool emplace(std::uint64_t k, V v) {
    const auto p = probe(k);
    if (p.found) return false;
    table_.claim(hash(k), p) = Entry{k, std::move(v)};
    return true;
  }

  /// The value under `k`, default-constructed first if absent.
  V& operator[](std::uint64_t k) {
    const auto p = probe(k);
    if (p.found) return table_[p.slot].value;
    Entry& e = table_.claim(hash(k), p);
    e.key = k;
    return e.value;
  }

  /// Drop `k` if present; returns whether it was.
  bool erase(std::uint64_t k) {
    const std::size_t i = index_of(k);
    if (i == table_.npos) return false;
    table_.erase_at(i);
    return true;
  }

  /// Drop every entry; the table keeps its size.
  void clear() { table_.clear(); }

  /// The probe hash of id `k`; its low bits pick the home slot. Fibonacci
  /// hashing: consecutive ids land far apart. Public so a test can choose
  /// keys that share a home slot.
  static std::uint32_t hash(std::uint64_t k) {
    return std::uint32_t((k * 0x9e3779b97f4a7c15ull) >> 32);
  }

 private:
  struct Traits {
    static bool empty(const Entry& e) { return e.key == kEmpty; }
    static std::uint32_t hash(const Entry& e) { return IdMap::hash(e.key); }
  };

  auto probe(std::uint64_t k) const {
    return table_.probe(hash(k), [k](const Entry& e) { return e.key == k; });
  }
  std::size_t index_of(std::uint64_t k) const {
    const auto p = probe(k);
    return p.found ? p.slot : table_.npos;
  }

  ProbeTable<Entry, Traits> table_;
};

}  // namespace afc
