#include "common/payload.h"

namespace afc {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Deterministic pattern byte at absolute stream position i of stream `seed`.
std::uint8_t pattern_byte(std::uint64_t seed, std::uint64_t i) {
  return std::uint8_t(mix64(seed + (i >> 3)) >> ((i & 7) * 8));
}

}  // namespace

Payload Payload::pattern(std::uint64_t len, std::uint64_t seed, std::uint64_t stream_off) {
  Payload p;
  p.len_ = len;
  p.seed_ = seed;
  p.off_ = stream_off;
  return p;
}

Payload Payload::bytes(std::vector<std::uint8_t> data) {
  Payload p;
  p.len_ = data.size();
  p.bytes_ = new Bytes{1, std::move(data)};
  return p;
}

std::uint64_t Payload::fingerprint() const {
  if (is_virtual()) {
    return mix64(seed_ ^ mix64(off_ ^ mix64(len_ ^ 0x5bd1e9955bd1e995ull)));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes_->data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> Payload::materialize() const {
  if (!is_virtual()) return bytes_->data;
  std::vector<std::uint8_t> out(len_);
  for (std::uint64_t i = 0; i < len_; i++) out[i] = pattern_byte(seed_, off_ + i);
  return out;
}

Payload Payload::slice(std::uint64_t off, std::uint64_t len) const {
  if (off > len_) off = len_;
  if (off + len > len_) len = len_ - off;
  if (is_virtual()) return Payload::pattern(len, seed_, off_ + off);
  const auto& d = bytes_->data;
  return Payload::bytes(
      std::vector<std::uint8_t>(d.begin() + long(off), d.begin() + long(off + len)));
}

bool Payload::content_equals(const Payload& other) const {
  if (len_ != other.len_) return false;
  if (len_ == 0) return true;  // all empty payloads are equal
  if (is_virtual() && other.is_virtual()) return seed_ == other.seed_ && off_ == other.off_;
  if (!is_virtual() && !other.is_virtual()) return bytes_->data == other.bytes_->data;
  return materialize() == other.materialize();
}

}  // namespace afc
