#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace afc {

/// Sorted-vector map: the subset of std::map that per-object state uses
/// (an object's extents by offset, its xattrs by name). One contiguous
/// allocation instead of one tree node per entry, and iteration in key
/// order like std::map. Inserting or erasing moves the entries after the
/// position, so it suits the few-to-hundreds of entries one object holds.
/// Iterators are invalidated by emplace, operator[] and erase (erase
/// returns the next valid one).
template <class K, class V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  /// First entry whose key is not less than `k`.
  iterator lower_bound(const K& k) {
    return std::lower_bound(items_.begin(), items_.end(), k, KeyLess{});
  }
  const_iterator lower_bound(const K& k) const {
    return std::lower_bound(items_.begin(), items_.end(), k, KeyLess{});
  }

  iterator find(const K& k) {
    auto it = lower_bound(k);
    return it != items_.end() && !(k < it->first) ? it : items_.end();
  }
  const_iterator find(const K& k) const {
    auto it = lower_bound(k);
    return it != items_.end() && !(k < it->first) ? it : items_.end();
  }

  /// Insert (k, v) unless `k` is present; an existing value is left alone.
  /// Returns the entry under `k` and whether it was inserted.
  std::pair<iterator, bool> emplace(K k, V v) {
    auto it = lower_bound(k);
    if (it != items_.end() && !(k < it->first)) return {it, false};
    return {items_.emplace(it, std::move(k), std::move(v)), true};
  }

  /// The value under `k`, default-constructed first if absent.
  V& operator[](const K& k) {
    auto it = lower_bound(k);
    if (it == items_.end() || k < it->first) it = items_.emplace(it, k, V{});
    return it->second;
  }

  iterator erase(const_iterator it) { return items_.erase(it); }
  iterator erase(const_iterator first, const_iterator last) { return items_.erase(first, last); }

 private:
  struct KeyLess {
    bool operator()(const value_type& e, const K& k) const { return e.first < k; }
  };

  std::vector<value_type> items_;
};

}  // namespace afc
