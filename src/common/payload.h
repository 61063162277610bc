#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace afc {

/// I/O payload that is either *real bytes* (small metadata / verified test
/// data) or a *virtual pattern* (seed + offset + length, like fio's verify
/// patterns). Benchmarks push terabytes of virtual data without allocating;
/// correctness tests materialize and compare actual bytes. Virtual payloads
/// slice in O(1): byte i of a pattern stream is a pure function of
/// (seed, stream_offset + i), so carving a window out of a 4 MiB virtual
/// extent never materializes it.
///
/// An immutable value type of 32 bytes: real bytes live in one shared,
/// reference-counted block, so copying a real payload never copies them.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload& o) : len_(o.len_), seed_(o.seed_), off_(o.off_), bytes_(o.bytes_) {
    if (bytes_ != nullptr) bytes_->refs++;
  }
  Payload(Payload&& o) noexcept
      : len_(o.len_), seed_(o.seed_), off_(o.off_), bytes_(std::exchange(o.bytes_, nullptr)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(len_, o.len_);
    std::swap(seed_, o.seed_);
    std::swap(off_, o.off_);
    std::swap(bytes_, o.bytes_);
    return *this;
  }
  ~Payload() {
    if (bytes_ != nullptr && --bytes_->refs == 0) delete bytes_;
  }

  static Payload pattern(std::uint64_t len, std::uint64_t seed, std::uint64_t stream_off = 0);
  static Payload bytes(std::vector<std::uint8_t> data);
  static Payload zeros(std::uint64_t len) { return pattern(len, 0); }

  std::uint64_t size() const { return len_; }
  bool is_virtual() const { return bytes_ == nullptr; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t stream_offset() const { return off_; }

  /// Deterministic content hash: FNV-1a over real bytes; O(1) identity mix
  /// for virtual payloads (two virtual payloads hash equal iff same
  /// seed/offset/length, i.e. identical content).
  std::uint64_t fingerprint() const;

  /// Expand to real bytes (deterministic for virtual payloads).
  std::vector<std::uint8_t> materialize() const;

  /// Sub-range [off, off+len) of this payload as a new payload (O(1) for
  /// virtual payloads, copy for real ones).
  Payload slice(std::uint64_t off, std::uint64_t len) const;

  bool content_equals(const Payload& other) const;

 private:
  /// The shared real bytes. The simulator is single-threaded, so the count
  /// is a plain integer.
  struct Bytes {
    std::uint64_t refs;
    std::vector<std::uint8_t> data;
  };

  std::uint64_t len_ = 0;
  std::uint64_t seed_ = 0;  // pattern seed for virtual payloads
  std::uint64_t off_ = 0;   // position within the pattern stream
  Bytes* bytes_ = nullptr;  // real bytes; null for a virtual payload
};

static_assert(sizeof(Payload) == 32, "Payload stays a 32-byte value type");

}  // namespace afc
