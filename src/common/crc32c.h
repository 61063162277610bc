#pragma once

#include <cstddef>
#include <cstdint>

namespace afc {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum RFC 3720 (iSCSI) standardised and that Ceph/RocksDB use
/// to guard journal/WAL records. Portable slicing-by-8 (eight table
/// lookups per eight bytes, byte at a time for the tail); every journal
/// record image is checksummed when written and again at replay.
///
/// `crc` is the running value for incremental use: feed the previous
/// return value back in to extend a checksum over split buffers.
/// `crc32c(b, n)` == `crc32c(b + k, n - k, crc32c(b, k))`.
std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc = 0);

}  // namespace afc
