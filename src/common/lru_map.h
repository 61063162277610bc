#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/probe_table.h"

namespace afc {

/// Bounded LRU map from K to V — the flat core under LruSet (the page
/// cache and the KV block cache) and the OSD's MetaCache. Allocation-free
/// once warm apart from what K and V own: one node vector holds each key
/// and value once, with uint32_t recency links and a free list, and a
/// DenseIndex (ProbeTable's linear probing and backward-shift delete over
/// IndexSlots) maps a key to its node by `Hash` and exact key equality. The
/// index doubles at 3/4 load and is never sized to the capacity up front,
/// so a large cache that stays mostly empty costs only what it holds.
template <class K, class V, class Hash>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// The value under `k`, which becomes the most recently used; nullptr
  /// when absent.
  V* touch(const K& k) {
    const std::uint32_t n = find(k);
    if (n == kNil) return nullptr;
    move_to_front(n);
    return &nodes_[n].value;
  }

  /// Residency test that leaves the recency order alone.
  bool contains(const K& k) const { return find(k) != kNil; }

  /// Set `k` to `v` and make it the most recently used. When the map is
  /// full the least recently used entry is evicted first; with capacity 0
  /// nothing stays.
  void insert(const K& k, V v) {
    if (V* cur = touch(k); cur != nullptr) {
      *cur = std::move(v);
      return;
    }
    if (capacity_ == 0) return;
    if (size() >= capacity_) evict(tail_);
    const std::uint32_t h = hash(k);
    const std::uint32_t n = alloc_node(k, std::move(v));
    link_front(n);
    index_.claim(h) = IndexSlot{n, h};
  }

  /// Drop `k` if present.
  void erase(const K& k) {
    const std::uint32_t n = find(k);
    if (n != kNil) evict(n);
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kNil = IndexSlot::kNil;

  struct Node {
    K key;
    [[no_unique_address]] V value;
    std::uint32_t prev;  // towards the most recently used; kNil at head_
    std::uint32_t next;  // towards the least recently used; free-list link when free
  };

  static std::uint32_t hash(const K& k) { return std::uint32_t(Hash{}(k)); }

  std::uint32_t find(const K& k) const {
    return find_pos(index_, hash(k), [&](std::uint32_t n) { return nodes_[n].key == k; });
  }

  /// Drop node `n` from the index, the recency list and the map.
  void evict(std::uint32_t n) {
    index_.erase_at(
        index_.find(hash(nodes_[n].key), [n](const IndexSlot& s) { return s.pos == n; }));
    unlink(n);
    // Release what the key and value own now, not when the node is reused.
    nodes_[n].key = K{};
    nodes_[n].value = V{};
    nodes_[n].next = free_;
    free_ = n;
  }

  std::uint32_t alloc_node(const K& k, V v) {
    if (free_ == kNil) {
      nodes_.push_back(Node{k, std::move(v), kNil, kNil});
      return std::uint32_t(nodes_.size() - 1);
    }
    const std::uint32_t n = free_;
    free_ = nodes_[n].next;
    nodes_[n] = Node{k, std::move(v), kNil, kNil};
    return n;
  }

  void link_front(std::uint32_t n) {
    nodes_[n].prev = kNil;
    nodes_[n].next = head_;
    if (head_ != kNil) nodes_[head_].prev = n;
    head_ = n;
    if (tail_ == kNil) tail_ = n;
  }

  void unlink(std::uint32_t n) {
    const Node& x = nodes_[n];
    if (x.prev != kNil) {
      nodes_[x.prev].next = x.next;
    } else {
      head_ = x.next;
    }
    if (x.next != kNil) {
      nodes_[x.next].prev = x.prev;
    } else {
      tail_ = x.prev;
    }
  }

  void move_to_front(std::uint32_t n) {
    if (n == head_) return;
    unlink(n);
    link_front(n);
  }

  std::size_t capacity_;
  std::vector<Node> nodes_;
  DenseIndex index_;
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::uint32_t free_ = kNil;
};

}  // namespace afc
