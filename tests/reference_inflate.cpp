// Reference inflater: the bit-at-a-time DEFLATE decoder that shipped in
// src/compress before the table-driven rewrite, kept verbatim as a test
// oracle. Only the error reasons were added, and the wrappers' "too short
// or bad magic" checks were split into a truncated and a corrupt case, as
// in the production wrappers. It reads one bit per Huffman step and
// appends output one byte at a time, so it is slow but easy to check
// against RFC 1951 line by line. The differential tests and fuzz_inflate
// require the production decoder to agree with it on every input: same
// accept/reject outcome and reason, identical output, and the same
// consumed-byte position.
#include "reference_inflate.hpp"

#include <array>
#include <sstream>
#include <vector>

#include "common/checksum.hpp"

namespace dpisvc::compress::reference {

namespace {

constexpr InflateFailure kTruncated = InflateFailure::kTruncated;
constexpr InflateFailure kCorrupt = InflateFailure::kCorrupt;
constexpr InflateFailure kLimit = InflateFailure::kLimit;

// --- bit input ---------------------------------------------------------------

/// LSB-first bit reader over a byte buffer (DEFLATE bit order).
class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  std::uint32_t bits(int count) {
    while (bit_count_ < count) {
      if (at_ >= data_.size()) {
        throw InflateError(kTruncated, "inflate: unexpected end of input");
      }
      hold_ |= static_cast<std::uint64_t>(data_[at_++]) << bit_count_;
      bit_count_ += 8;
    }
    const auto value = static_cast<std::uint32_t>(hold_ & ((1u << count) - 1));
    hold_ >>= count;
    bit_count_ -= count;
    return value;
  }

  std::uint32_t bit() { return bits(1); }

  /// Discards buffered bits up to the next byte boundary (stored blocks).
  void align() {
    const int drop = bit_count_ % 8;
    hold_ >>= drop;
    bit_count_ -= drop;
  }

  /// Reads raw bytes (must be byte-aligned).
  void read_bytes(std::uint8_t* out, std::size_t count) {
    while (bit_count_ >= 8 && count > 0) {
      *out++ = static_cast<std::uint8_t>(hold_ & 0xFF);
      hold_ >>= 8;
      bit_count_ -= 8;
      --count;
    }
    if (at_ + count > data_.size()) {
      throw InflateError(kTruncated, "inflate: unexpected end of stored data");
    }
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = data_[at_ + i];
    }
    at_ += count;
  }

  std::size_t byte_position() const noexcept { return at_; }

 private:
  BytesView data_;
  std::size_t at_ = 0;
  std::uint64_t hold_ = 0;
  int bit_count_ = 0;
};

// --- canonical Huffman decoding -------------------------------------------------

constexpr int kMaxBits = 15;

/// Canonical Huffman decoder built from code lengths (RFC 1951 §3.2.2),
/// using the per-length first-code/first-symbol tables.
class Huffman {
 public:
  void build(const std::uint8_t* lengths, std::size_t count) {
    std::array<std::uint16_t, kMaxBits + 1> length_count{};
    for (std::size_t i = 0; i < count; ++i) {
      if (lengths[i] > kMaxBits) {
        throw InflateError(kCorrupt, "inflate: code length exceeds 15");
      }
      ++length_count[lengths[i]];
    }
    length_count[0] = 0;
    // Over-subscription check (incomplete codes are tolerated for the
    // single-symbol distance-code case, per the RFC's note).
    int left = 1;
    for (std::size_t len = 1; len <= kMaxBits; ++len) {
      left <<= 1;
      left -= length_count[len];
      if (left < 0) {
        throw InflateError(kCorrupt, "inflate: over-subscribed Huffman code");
      }
    }
    std::array<std::uint16_t, kMaxBits + 2> next_offset{};
    for (std::size_t len = 1; len <= kMaxBits; ++len) {
      next_offset[len + 1] =
          static_cast<std::uint16_t>(next_offset[len] + length_count[len]);
    }
    symbols_.assign(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      if (lengths[i] != 0) {
        symbols_[next_offset[lengths[i]]++] = static_cast<std::uint16_t>(i);
      }
    }
    counts_ = length_count;
  }

  int decode(BitReader& in) const {
    std::uint32_t code = 0;
    std::uint32_t first = 0;
    std::uint32_t index = 0;
    for (std::size_t len = 1; len <= kMaxBits; ++len) {
      code |= in.bit();
      const std::uint32_t count = counts_[len];
      if (code < first + count) {
        return symbols_[index + (code - first)];
      }
      index += count;
      first = (first + count) << 1;
      code <<= 1;
    }
    throw InflateError(kCorrupt, "inflate: invalid Huffman code");
  }

 private:
  std::array<std::uint16_t, kMaxBits + 1> counts_{};
  std::vector<std::uint16_t> symbols_;
};

// --- LZ77 length / distance tables (RFC 1951 §3.2.5) ---------------------------

constexpr std::uint16_t kLengthBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::uint8_t kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                         4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

class Inflater {
 public:
  Inflater(BytesView input, const InflateLimits& limits)
      : in_(input), limits_(limits) {}

  Bytes run() {
    bool final_block = false;
    while (!final_block) {
      final_block = in_.bit() != 0;
      const std::uint32_t type = in_.bits(2);
      switch (type) {
        case 0:
          stored_block();
          break;
        case 1:
          fixed_block();
          break;
        case 2:
          dynamic_block();
          break;
        default:
          throw InflateError(kCorrupt, "inflate: reserved block type 3");
      }
    }
    return std::move(out_);
  }

  std::size_t consumed() const noexcept { return in_.byte_position(); }

 private:
  void emit(std::uint8_t byte) {
    if (out_.size() >= limits_.max_output) {
      throw InflateError(kLimit, "inflate: output limit exceeded");
    }
    out_.push_back(byte);
  }

  void stored_block() {
    in_.align();
    std::uint8_t header[4];
    in_.read_bytes(header, 4);
    const std::uint16_t len =
        static_cast<std::uint16_t>(header[0] | (header[1] << 8));
    const std::uint16_t nlen =
        static_cast<std::uint16_t>(header[2] | (header[3] << 8));
    if (len != static_cast<std::uint16_t>(~nlen)) {
      throw InflateError(kCorrupt, "inflate: stored block LEN/NLEN mismatch");
    }
    if (out_.size() + len > limits_.max_output) {
      throw InflateError(kLimit, "inflate: output limit exceeded");
    }
    const std::size_t at = out_.size();
    out_.resize(at + len);
    in_.read_bytes(out_.data() + at, len);
  }

  void fixed_block() {
    if (!fixed_ready_) {
      std::array<std::uint8_t, 288> lit_lengths;
      for (int i = 0; i < 144; ++i) lit_lengths[static_cast<std::size_t>(i)] = 8;
      for (int i = 144; i < 256; ++i) lit_lengths[static_cast<std::size_t>(i)] = 9;
      for (int i = 256; i < 280; ++i) lit_lengths[static_cast<std::size_t>(i)] = 7;
      for (int i = 280; i < 288; ++i) lit_lengths[static_cast<std::size_t>(i)] = 8;
      fixed_literals_.build(lit_lengths.data(), lit_lengths.size());
      std::array<std::uint8_t, 30> dist_lengths;
      dist_lengths.fill(5);
      fixed_distances_.build(dist_lengths.data(), dist_lengths.size());
      fixed_ready_ = true;
    }
    compressed_block(fixed_literals_, fixed_distances_);
  }

  void dynamic_block() {
    const std::uint32_t hlit = in_.bits(5) + 257;
    const std::uint32_t hdist = in_.bits(5) + 1;
    const std::uint32_t hclen = in_.bits(4) + 4;
    if (hlit > 286 || hdist > 30) {
      throw InflateError(kCorrupt, "inflate: bad HLIT/HDIST");
    }
    static constexpr std::uint8_t kOrder[19] = {
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};
    std::array<std::uint8_t, 19> cl_lengths{};
    for (std::uint32_t i = 0; i < hclen; ++i) {
      cl_lengths[kOrder[i]] = static_cast<std::uint8_t>(in_.bits(3));
    }
    Huffman cl_code;
    cl_code.build(cl_lengths.data(), cl_lengths.size());

    std::array<std::uint8_t, 286 + 30> lengths{};
    std::uint32_t at = 0;
    const std::uint32_t total = hlit + hdist;
    while (at < total) {
      const int symbol = cl_code.decode(in_);
      if (symbol < 16) {
        lengths[at++] = static_cast<std::uint8_t>(symbol);
      } else if (symbol == 16) {
        if (at == 0) {
          throw InflateError(kCorrupt, "inflate: repeat with no previous");
        }
        const std::uint8_t prev = lengths[at - 1];
        std::uint32_t repeat = 3 + in_.bits(2);
        while (repeat-- > 0) {
          if (at >= total) {
            throw InflateError(kCorrupt, "inflate: repeat overflows");
          }
          lengths[at++] = prev;
        }
      } else if (symbol == 17) {
        std::uint32_t repeat = 3 + in_.bits(3);
        while (repeat-- > 0) {
          if (at >= total) {
            throw InflateError(kCorrupt, "inflate: repeat overflows");
          }
          lengths[at++] = 0;
        }
      } else {  // 18
        std::uint32_t repeat = 11 + in_.bits(7);
        while (repeat-- > 0) {
          if (at >= total) {
            throw InflateError(kCorrupt, "inflate: repeat overflows");
          }
          lengths[at++] = 0;
        }
      }
    }
    if (lengths[256] == 0) {
      throw InflateError(kCorrupt, "inflate: missing end-of-block code");
    }
    Huffman literals;
    literals.build(lengths.data(), hlit);
    Huffman distances;
    distances.build(lengths.data() + hlit, hdist);
    compressed_block(literals, distances);
  }

  void compressed_block(const Huffman& literals, const Huffman& distances) {
    while (true) {
      const int symbol = literals.decode(in_);
      if (symbol < 256) {
        emit(static_cast<std::uint8_t>(symbol));
        continue;
      }
      if (symbol == 256) return;  // end of block
      if (symbol > 285) {
        throw InflateError(kCorrupt, "inflate: invalid length symbol");
      }
      const int length_index = symbol - 257;
      const std::uint32_t length =
          kLengthBase[length_index] +
          in_.bits(kLengthExtra[length_index]);
      const int dist_symbol = distances.decode(in_);
      if (dist_symbol > 29) {
        throw InflateError(kCorrupt, "inflate: invalid distance");
      }
      const std::uint32_t distance =
          kDistBase[dist_symbol] + in_.bits(kDistExtra[dist_symbol]);
      if (distance > out_.size()) {
        throw InflateError(kCorrupt, "inflate: distance beyond output start");
      }
      for (std::uint32_t i = 0; i < length; ++i) {
        emit(out_[out_.size() - distance]);
      }
    }
  }

  BitReader in_;
  InflateLimits limits_;
  Bytes out_;

  bool fixed_ready_ = false;
  Huffman fixed_literals_;
  Huffman fixed_distances_;
};

std::uint32_t le32(BytesView data, std::size_t at) {
  if (at + 4 > data.size()) {
    throw InflateError(kTruncated, "inflate: truncated trailer");
  }
  return static_cast<std::uint32_t>(data[at]) |
         (static_cast<std::uint32_t>(data[at + 1]) << 8) |
         (static_cast<std::uint32_t>(data[at + 2]) << 16) |
         (static_cast<std::uint32_t>(data[at + 3]) << 24);
}

}  // namespace

InflateResult inflate_prefix(BytesView deflate_stream,
                             const InflateLimits& limits) {
  Inflater inflater(deflate_stream, limits);
  InflateResult result;
  result.output = inflater.run();
  result.consumed = inflater.consumed();
  return result;
}

Bytes zlib_decompress(BytesView stream, const InflateLimits& limits) {
  if (!looks_like_zlib(stream)) {
    throw InflateError(kCorrupt, "zlib: bad header");
  }
  if (stream.size() < 6) {
    throw InflateError(kTruncated, "zlib: short stream");
  }
  if (stream[1] & 0x20) {
    throw InflateError(kCorrupt,
                       "zlib: preset dictionary not supported");
  }
  Inflater inflater(stream.subspan(2), limits);
  Bytes out = inflater.run();
  const std::size_t trailer_at = 2 + inflater.consumed();
  if (trailer_at + 4 > stream.size()) {
    throw InflateError(kTruncated,
                       "zlib: missing Adler-32 trailer");
  }
  const std::uint32_t expected =
      (static_cast<std::uint32_t>(stream[trailer_at]) << 24) |
      (static_cast<std::uint32_t>(stream[trailer_at + 1]) << 16) |
      (static_cast<std::uint32_t>(stream[trailer_at + 2]) << 8) |
      static_cast<std::uint32_t>(stream[trailer_at + 3]);
  if (adler32(out) != expected) {
    throw InflateError(kCorrupt, "zlib: Adler-32 mismatch");
  }
  return out;
}

Bytes gzip_decompress(BytesView stream, const InflateLimits& limits) {
  if (!looks_like_gzip(stream)) {
    throw InflateError(kCorrupt, "gzip: bad magic");
  }
  if (stream.size() < 18) {
    throw InflateError(kTruncated, "gzip: short member");
  }
  if (stream[2] != 8) {
    throw InflateError(kCorrupt,
                       "gzip: unsupported compression method");
  }
  const std::uint8_t flags = stream[3];
  if (flags & 0xE0) {
    throw InflateError(kCorrupt,
                       "gzip: reserved flag bits set");
  }
  std::size_t at = 10;  // magic(2) CM(1) FLG(1) MTIME(4) XFL(1) OS(1)
  if (flags & 0x04) {  // FEXTRA
    if (at + 2 > stream.size()) {
      throw InflateError(kTruncated, "gzip: truncated FEXTRA");
    }
    const std::size_t xlen = stream[at] | (stream[at + 1] << 8);
    at += 2 + xlen;
  }
  auto skip_zstring = [&] {
    while (true) {
      if (at >= stream.size()) {
        throw InflateError(kTruncated,
                           "gzip: truncated string");
      }
      if (stream[at++] == 0) break;
    }
  };
  if (flags & 0x08) skip_zstring();  // FNAME
  if (flags & 0x10) skip_zstring();  // FCOMMENT
  if (flags & 0x02) {                // FHCRC
    if (at + 2 > stream.size()) {
      throw InflateError(kTruncated, "gzip: truncated FHCRC");
    }
    const std::uint16_t expected =
        static_cast<std::uint16_t>(stream[at] | (stream[at + 1] << 8));
    const std::uint16_t actual =
        static_cast<std::uint16_t>(crc32(stream.first(at)) & 0xFFFF);
    if (expected != actual) {
      throw InflateError(kCorrupt,
                         "gzip: header CRC mismatch");
    }
    at += 2;
  }
  if (at >= stream.size()) {
    throw InflateError(kTruncated,
                       "gzip: missing deflate payload");
  }

  Inflater inflater(stream.subspan(at), limits);
  Bytes out = inflater.run();
  const std::size_t trailer_at = at + inflater.consumed();
  const std::uint32_t expected_crc = le32(stream, trailer_at);
  const std::uint32_t expected_size = le32(stream, trailer_at + 4);
  if (crc32(out) != expected_crc) {
    throw InflateError(kCorrupt, "gzip: CRC-32 mismatch");
  }
  if ((out.size() & 0xFFFFFFFFu) != expected_size) {
    throw InflateError(kCorrupt, "gzip: ISIZE mismatch");
  }
  return out;
}

Outcome decode(bool use_reference, Wrapper wrapper, BytesView input,
               const InflateLimits& limits) {
  Outcome o;
  try {
    switch (wrapper) {
      case Wrapper::kRaw: {
        InflateResult r = use_reference
                              ? reference::inflate_prefix(input, limits)
                              : compress::inflate_prefix(input, limits);
        o.output = std::move(r.output);
        o.consumed = r.consumed;
        break;
      }
      case Wrapper::kGzip:
        o.output = use_reference ? reference::gzip_decompress(input, limits)
                                 : compress::gzip_decompress(input, limits);
        break;
      case Wrapper::kZlib:
        o.output = use_reference ? reference::zlib_decompress(input, limits)
                                 : compress::zlib_decompress(input, limits);
        break;
    }
    o.ok = true;
  } catch (const InflateError& e) {
    o.reason = e.reason();
    o.what = e.what();
  }
  return o;
}

std::string compare(const Outcome& want, const Outcome& got) {
  std::ostringstream diff;
  if (want.ok != got.ok) {
    diff << "reference " << (want.ok ? "accepted" : "rejected: " + want.what)
         << ", decoder " << (got.ok ? "accepted" : "rejected: " + got.what);
  } else if (!want.ok && (want.reason != got.reason || want.what != got.what)) {
    diff << "failure differs: reference '" << want.what << "' ("
         << inflate_failure_name(want.reason) << "), decoder '" << got.what
         << "' (" << inflate_failure_name(got.reason) << ")";
  } else if (want.ok && want.output != got.output) {
    diff << "output differs (" << want.output.size() << " vs "
         << got.output.size() << " bytes)";
  } else if (want.ok && want.consumed != got.consumed) {
    diff << "consumed differs: " << want.consumed << " vs " << got.consumed;
  }
  return diff.str();
}

}  // namespace dpisvc::compress::reference
