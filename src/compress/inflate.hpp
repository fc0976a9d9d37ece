// DEFLATE decompression (RFC 1951) with zlib (RFC 1950) and gzip (RFC 1952)
// wrappers — implemented from scratch.
//
// Why this lives in a DPI service: §1 argues that when DPI is consolidated,
// "the effect of decompression or decryption, which usually takes place
// prior to the DPI phase, may be reduced significantly, as these heavy
// processes are executed only once for each packet". HTTP bodies are
// overwhelmingly gzip-encoded; a DPI service that cannot inflate them scans
// opaque bytes. This module is that shared decompression stage.
//
// Scope: complete inflate — stored, fixed-Huffman and dynamic-Huffman
// blocks, full LZ77 length/distance coding — plus header/trailer handling
// and checksum verification for both wrappers. Malformed input raises
// InflateError; output size is bounded to keep decompression bombs from
// exhausting an instance. The decoder is table-driven (DESIGN.md §4b,
// "Inflate"): a 64-bit bit buffer, a 2^10-entry first-level lookup per
// Huffman code with a canonical walk for longer codes, and an output
// buffer that grows geometrically up to the limit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.hpp"

namespace dpisvc::compress {

/// Why an inflate failed. The service counts failed attempts per reason.
enum class InflateFailure : std::uint8_t {
  kTruncated,  ///< input ended before the stream or its trailer did
  kCorrupt,    ///< malformed stream, header or checksum mismatch
  kLimit,      ///< output would exceed InflateLimits::max_output
};
inline constexpr std::size_t kInflateFailureCount = 3;

/// "truncated", "corrupt" or "limit".
const char* inflate_failure_name(InflateFailure reason) noexcept;

class InflateError : public std::runtime_error {
 public:
  InflateError(InflateFailure reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  InflateFailure reason() const noexcept { return reason_; }

 private:
  InflateFailure reason_;
};

struct InflateLimits {
  /// Maximum decompressed size; exceeding it throws (bomb protection).
  std::size_t max_output = 64u << 20;
};

/// Decompresses a raw DEFLATE stream (no wrapper).
Bytes inflate(BytesView deflate_stream, const InflateLimits& limits = {});

/// A raw DEFLATE stream decoded from the start of a buffer.
struct InflateResult {
  Bytes output;
  /// Input bytes the stream spanned, through the byte holding the final
  /// block's last bit: the offset at which a wrapper's trailer starts.
  std::size_t consumed = 0;
};

/// Like inflate(), but also reports where the stream ended; bytes after
/// the final block are left unread.
InflateResult inflate_prefix(BytesView data, const InflateLimits& limits = {});

/// Decompresses a zlib stream (RFC 1950): header checks + Adler-32 verify.
Bytes zlib_decompress(BytesView stream, const InflateLimits& limits = {});

/// Decompresses a gzip member (RFC 1952): header fields (FEXTRA/FNAME/
/// FCOMMENT/FHCRC) are parsed and skipped; CRC-32 and ISIZE are verified.
Bytes gzip_decompress(BytesView stream, const InflateLimits& limits = {});

/// True if the buffer starts with a gzip magic header.
bool looks_like_gzip(BytesView data) noexcept;

/// True if the buffer starts with a plausible zlib header.
bool looks_like_zlib(BytesView data) noexcept;

/// Adler-32 checksum (RFC 1950 §8.2).
std::uint32_t adler32(BytesView data) noexcept;

}  // namespace dpisvc::compress
