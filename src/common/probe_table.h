#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace afc {

/// The one open-addressing slot array in the simulator, under IdMap and
/// every DenseIndex (LruMap, InternPool, MemTable): linear probing over a
/// power-of-two table, backward-shift delete (no tombstones), doubling at
/// 3/4 load. It owns no storage until the first claim. `Traits` names a
/// slot's state: `empty(s)`, and `hash(s)`, whose low bits give the slot's
/// home; `Slot{}` is an empty slot. The table never compares keys: callers
/// find a slot with their own predicate and fill the slot that `claim`
/// hands them. Slots move on growth and on erase, so a reference into the
/// table lasts only until the next claim or erase.
template <class Slot, class Traits>
class ProbeTable {
 public:
  static constexpr std::size_t npos = ~std::size_t(0);

  /// Index of the first slot in the probe run from hash `h`'s home that
  /// satisfies `match`, or npos when the run ends first.
  template <class Match>
  std::size_t find(std::uint32_t h, Match match) const {
    if (size_ == 0) return npos;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (Traits::empty(s)) return npos;
      if (match(s)) return i;
    }
  }

  /// The empty slot where a new entry of hash `h` belongs, counted as
  /// occupied from now on; the caller fills it so that `Traits` sees its
  /// hash. Grows first when the new entry would pass 3/4 load.
  Slot& claim(std::uint32_t h) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    size_++;
    return slots_[home_run_end(h)];
  }

  /// Empty slot `i` (from `find`) and close the hole: later members of the
  /// probe run move back into it unless their home lies cyclically in
  /// (hole, j].
  void erase_at(std::size_t i) {
    for (std::size_t j = (i + 1) & mask_; !Traits::empty(slots_[j]); j = (j + 1) & mask_) {
      const std::size_t home = Traits::hash(slots_[j]) & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot{};
    size_--;
  }

  /// Empty every slot; the table keeps its size.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  Slot& operator[](std::size_t i) { return slots_[i]; }
  const Slot& operator[](std::size_t i) const { return slots_[i]; }
  std::size_t size() const { return size_; }
  /// Every slot, empty ones included.
  const std::vector<Slot>& slots() const { return slots_; }

 private:
  std::size_t home_run_end(std::uint32_t h) const {
    std::size_t i = h & mask_;
    while (!Traits::empty(slots_[i])) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (!Traits::empty(s)) slots_[home_run_end(Traits::hash(s))] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The index slot of a table that keeps its entries in a dense array of its
/// own (LruMap's nodes, InternPool's records, MemTable's entries): the
/// entry's position in that array, and the low 32 bits of its key's hash,
/// kept so a probe skips most key compares and growth rehashes no key.
struct IndexSlot {
  static constexpr std::uint32_t kNil = ~std::uint32_t(0);

  std::uint32_t pos = kNil;  // kNil: empty
  std::uint32_t hash = 0;

  struct Traits {
    static bool empty(const IndexSlot& s) { return s.pos == kNil; }
    static std::uint32_t hash(const IndexSlot& s) { return s.hash; }
  };
};

/// An index from keys to positions in a dense array. Add an entry with
/// `claim(h) = IndexSlot{pos, h}`.
using DenseIndex = ProbeTable<IndexSlot, IndexSlot::Traits>;

/// The position indexed under hash `h` whose key `is_key(pos)` accepts, or
/// IndexSlot::kNil when there is none.
template <class IsKey>
std::uint32_t find_pos(const DenseIndex& index, std::uint32_t h, IsKey is_key) {
  const std::size_t i =
      index.find(h, [&](const IndexSlot& s) { return s.hash == h && is_key(s.pos); });
  return i == DenseIndex::npos ? IndexSlot::kNil : index[i].pos;
}

}  // namespace afc
