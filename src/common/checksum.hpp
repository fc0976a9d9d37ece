// Checksums used by the packet layer.
//
// - Internet checksum (RFC 1071) for the simulated IPv4/TCP headers.
// - CRC32 (IEEE 802.3 polynomial, slicing-by-8 tables) for frame integrity
//   and gzip trailers, and as a stable content fingerprint in flow hashing.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace dpisvc {

/// RFC 1071 ones'-complement checksum over the buffer (odd trailing byte is
/// zero-padded). Returns the folded 16-bit checksum, not yet complemented.
std::uint16_t internet_checksum(BytesView data) noexcept;

/// IEEE CRC32 (reflected, init 0xFFFFFFFF, final xor 0xFFFFFFFF).
std::uint32_t crc32(BytesView data) noexcept;

/// 64-bit FNV-1a hash; used for flow-key hashing where speed matters more
/// than cryptographic strength.
std::uint64_t fnv1a(BytesView data) noexcept;

}  // namespace dpisvc
