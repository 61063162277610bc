#include "common/crc32c.h"

#include <array>

namespace afc {

namespace {

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table; t[k][i]
// is the CRC of byte i followed by k zero bytes.
Tables make_tables() {
  constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
  }
  return t;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  static const Tables kT = make_tables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  // Eight bytes per step, assembled little-endian from single loads so the
  // result does not depend on alignment or host byte order.
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ (std::uint32_t(p[0]) | std::uint32_t(p[1]) << 8 |
                                  std::uint32_t(p[2]) << 16 | std::uint32_t(p[3]) << 24);
    c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^ kT[5][(lo >> 16) & 0xFF] ^ kT[4][lo >> 24] ^
        kT[3][p[4]] ^ kT[2][p[5]] ^ kT[1][p[6]] ^ kT[0][p[7]];
  }
  for (; len > 0; ++p, --len) c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace afc
