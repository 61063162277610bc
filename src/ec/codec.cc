#include "ec/codec.h"

#include <cassert>

#include "ec/gf256.h"

namespace afc::ec {

Codec::Codec(unsigned k, unsigned m) : k_(k), m_(m) {
  assert(k >= 1 && m >= 1 && k + m <= 255);
  parity_.resize(std::size_t(m) * k);
  for (unsigned i = 0; i < m; i++)
    for (unsigned j = 0; j < k; j++) {
      // Evaluation points x_i = k+i and y_j = j are disjoint integer sets,
      // so x ^ y != 0 and the inverse exists. 1/(x_i - y_j) in char 2 is
      // inv(x ^ y): a Cauchy matrix, every square submatrix nonsingular.
      parity_[std::size_t(i) * k + j] = gf_inv(std::uint8_t((k + i) ^ j));
    }
}

std::vector<std::vector<std::uint8_t>> Codec::encode(
    const std::vector<std::vector<std::uint8_t>>& data) const {
  assert(data.size() == k_);
  std::size_t len = data[0].size();
  for ([[maybe_unused]] const auto& d : data) assert(d.size() == len);
  std::vector<std::vector<std::uint8_t>> parity(
      m_, std::vector<std::uint8_t>(len, 0));
  for (unsigned i = 0; i < m_; i++)
    for (unsigned j = 0; j < k_; j++) {
      std::uint8_t c = parity_[std::size_t(i) * k_ + j];
      const auto& src = data[j];
      auto& dst = parity[i];
      for (std::size_t b = 0; b < len; b++) dst[b] ^= gf_mul(c, src[b]);
    }
  return parity;
}

std::optional<std::vector<std::vector<std::uint8_t>>> Codec::decode(
    const std::vector<unsigned>& present,
    const std::vector<std::vector<std::uint8_t>>& chunks) const {
  if (present.size() < k_ || chunks.size() != present.size()) return {};
  std::size_t len = chunks[0].size();
  for (const auto& c : chunks)
    if (c.size() != len) return {};

  // Generator rows of the first k surviving shards, augmented with I_k;
  // Gauss-Jordan turns the right half into the inverse.
  std::vector<std::uint8_t> a(std::size_t(k_) * k_, 0);
  std::vector<std::uint8_t> inv(std::size_t(k_) * k_, 0);
  for (unsigned r = 0; r < k_; r++) {
    unsigned shard = present[r];
    if (shard < k_) {
      a[std::size_t(r) * k_ + shard] = 1;
    } else {
      for (unsigned j = 0; j < k_; j++)
        a[std::size_t(r) * k_ + j] = parity_[std::size_t(shard - k_) * k_ + j];
    }
    inv[std::size_t(r) * k_ + r] = 1;
  }
  for (unsigned col = 0; col < k_; col++) {
    unsigned pivot = col;
    while (pivot < k_ && a[std::size_t(pivot) * k_ + col] == 0) pivot++;
    if (pivot == k_) return {};  // duplicate shard index fed in
    if (pivot != col)
      for (unsigned j = 0; j < k_; j++) {
        std::swap(a[std::size_t(pivot) * k_ + j], a[std::size_t(col) * k_ + j]);
        std::swap(inv[std::size_t(pivot) * k_ + j],
                  inv[std::size_t(col) * k_ + j]);
      }
    std::uint8_t d = gf_inv(a[std::size_t(col) * k_ + col]);
    for (unsigned j = 0; j < k_; j++) {
      a[std::size_t(col) * k_ + j] = gf_mul(a[std::size_t(col) * k_ + j], d);
      inv[std::size_t(col) * k_ + j] =
          gf_mul(inv[std::size_t(col) * k_ + j], d);
    }
    for (unsigned r = 0; r < k_; r++) {
      if (r == col) continue;
      std::uint8_t f = a[std::size_t(r) * k_ + col];
      if (f == 0) continue;
      for (unsigned j = 0; j < k_; j++) {
        a[std::size_t(r) * k_ + j] ^=
            gf_mul(f, a[std::size_t(col) * k_ + j]);
        inv[std::size_t(r) * k_ + j] ^=
            gf_mul(f, inv[std::size_t(col) * k_ + j]);
      }
    }
  }

  std::vector<std::vector<std::uint8_t>> data(
      k_, std::vector<std::uint8_t>(len, 0));
  for (unsigned r = 0; r < k_; r++)
    for (unsigned i = 0; i < k_; i++) {
      std::uint8_t c = inv[std::size_t(r) * k_ + i];
      if (c == 0) continue;
      const auto& src = chunks[i];
      auto& dst = data[r];
      for (std::size_t b = 0; b < len; b++) dst[b] ^= gf_mul(c, src[b]);
    }
  return data;
}

std::optional<std::vector<std::uint8_t>> Codec::reconstruct_shard(
    unsigned target, const std::vector<unsigned>& present,
    const std::vector<std::vector<std::uint8_t>>& chunks) const {
  // Fast path: the target survived intact in the input.
  for (std::size_t i = 0; i < present.size(); i++)
    if (present[i] == target) return chunks[i];
  auto data = decode(present, chunks);
  if (!data) return {};
  if (target < k_) return std::move((*data)[target]);
  std::size_t len = (*data)[0].size();
  std::vector<std::uint8_t> out(len, 0);
  for (unsigned j = 0; j < k_; j++) {
    std::uint8_t c = parity_[std::size_t(target - k_) * k_ + j];
    const auto& src = (*data)[j];
    for (std::size_t b = 0; b < len; b++) out[b] ^= gf_mul(c, src[b]);
  }
  return out;
}

}  // namespace afc::ec
