#include "compress/inflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/checksum.hpp"

namespace dpisvc::compress {

namespace {

[[noreturn]] void fail(InflateFailure reason, const char* what) {
  throw InflateError(reason, what);
}

// --- canonical Huffman codes ---------------------------------------------------

constexpr unsigned kMaxBits = 15;
/// Width of the first-level lookup: codes up to this length decode in one
/// table probe; longer ones take the canonical walk.
constexpr unsigned kFastBits = 10;
constexpr std::size_t kFastSize = std::size_t{1} << kFastBits;
/// Largest alphabet: the fixed literal/length code (RFC 1951 §3.2.6).
constexpr std::size_t kMaxSymbols = 288;

/// Canonical Huffman code built from code lengths (RFC 1951 §3.2.2). Holds
/// the per-length counts and the symbols in canonical order (for the walk)
/// plus the fast table, indexed by the next kFastBits input bits: each
/// entry is `symbol << 4 | length`, or 0 when the code there is longer than
/// kFastBits or invalid. Fixed-size, so building one never allocates.
class Huffman {
 public:
  void build(const std::uint8_t* lengths, std::size_t count) {
    std::array<std::uint16_t, kMaxBits + 1> length_count{};
    for (std::size_t i = 0; i < count; ++i) {
      if (lengths[i] > kMaxBits) {
        fail(InflateFailure::kCorrupt, "inflate: code length exceeds 15");
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
        fail(InflateFailure::kCorrupt, "inflate: over-subscribed Huffman code");
      }
    }
    std::array<std::uint16_t, kMaxBits + 2> next_offset{};
    for (std::size_t len = 1; len <= kMaxBits; ++len) {
      next_offset[len + 1] =
          static_cast<std::uint16_t>(next_offset[len] + length_count[len]);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (lengths[i] != 0) {
        symbols_[next_offset[lengths[i]]++] = static_cast<std::uint16_t>(i);
      }
    }
    counts_ = length_count;

    // Fast table: walk the canonical codes of length <= kFastBits in order
    // and replicate each (bit-reversed, since DEFLATE packs Huffman codes
    // MSB-first into an LSB-first stream) over every index it prefixes.
    fast_.fill(0);
    std::uint32_t code = 0;
    std::size_t index = 0;
    for (unsigned len = 1; len <= kFastBits; ++len) {
      for (std::uint32_t k = 0; k < counts_[len]; ++k, ++code, ++index) {
        const auto entry = static_cast<std::uint16_t>(
            (static_cast<unsigned>(symbols_[index]) << 4) | len);
        for (std::size_t at = reverse_bits(code, len); at < kFastSize;
             at += std::size_t{1} << len) {
          fast_[at] = entry;
        }
      }
      code <<= 1;
    }
  }

  std::uint16_t fast(std::uint64_t bits) const noexcept {
    return fast_[static_cast<std::size_t>(bits & (kFastSize - 1))];
  }

  /// Canonical first-code walk over `bits` (the next kMaxBits input bits,
  /// LSB first). Returns `symbol << 4 | length`, or 0 for an invalid code.
  std::uint32_t walk(std::uint64_t bits) const noexcept {
    std::uint32_t code = 0;
    std::uint32_t first = 0;
    std::uint32_t index = 0;
    for (unsigned len = 1; len <= kMaxBits; ++len) {
      code |= static_cast<std::uint32_t>(bits >> (len - 1)) & 1u;
      const std::uint32_t count = counts_[len];
      if (code < first + count) {
        return (static_cast<std::uint32_t>(symbols_[index + (code - first)])
                << 4) |
               len;
      }
      index += count;
      first = (first + count) << 1;
      code <<= 1;
    }
    return 0;
  }

 private:
  static std::size_t reverse_bits(std::uint32_t code, unsigned len) noexcept {
    std::size_t out = 0;
    for (unsigned i = 0; i < len; ++i) {
      out = (out << 1) | ((code >> i) & 1u);
    }
    return out;
  }

  std::array<std::uint16_t, kMaxBits + 1> counts_{};
  std::array<std::uint16_t, kMaxSymbols> symbols_{};
  std::array<std::uint16_t, kFastSize> fast_{};
};

/// The fixed codes of RFC 1951 §3.2.6, built once per process.
struct FixedCodes {
  Huffman literals;
  Huffman distances;

  FixedCodes() {
    std::array<std::uint8_t, kMaxSymbols> lit_lengths{};
    auto fill = [&](std::size_t from, std::size_t to, std::uint8_t length) {
      std::fill(lit_lengths.begin() + static_cast<std::ptrdiff_t>(from),
                lit_lengths.begin() + static_cast<std::ptrdiff_t>(to), length);
    };
    fill(0, 144, 8);
    fill(144, 256, 9);
    fill(256, 280, 7);
    fill(280, kMaxSymbols, 8);
    literals.build(lit_lengths.data(), lit_lengths.size());
    std::array<std::uint8_t, 30> dist_lengths{};
    dist_lengths.fill(std::uint8_t{5});
    distances.build(dist_lengths.data(), dist_lengths.size());
  }
};

const FixedCodes& fixed_codes() {
  static const FixedCodes codes;
  return codes;
}

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

std::uint64_t load_le64(const std::uint8_t* at) noexcept {
  std::uint64_t word;
  std::memcpy(&word, at, sizeof word);
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// One DEFLATE stream decode. All state lives here — the bit buffer, the
/// input position and the output — so a resumable decoder can grow out of
/// this class rather than beside it.
///
/// Bit buffer: `hold_` keeps `bits_` unread input bits, LSB first. refill()
/// tops it up to at least 56 bits: one unaligned 8-byte load while 8 input
/// bytes remain, else byte by byte, padding with zero bytes past the end of
/// the input. `pad_bits_` counts that padding; the stream has read past its
/// end exactly when fewer than `pad_bits_` bits remain unread, and every
/// consume checks that, so a truncated stream fails as truncated at the
/// same point the bit-at-a-time decoder would.
class Inflater {
 public:
  Inflater(BytesView input, const InflateLimits& limits)
      : in_(input.data()), in_size_(input.size()),
        max_output_(limits.max_output) {}

  Bytes run() {
    // Start from a guess sized to typical DEFLATE expansion; reserve()
    // doubles it from there, never beyond max_output.
    out_.resize(
        std::min(max_output_, std::max<std::size_t>(4 * in_size_, 256)));
    op_ = out_.data();
    oend_ = op_ + out_.size();

    bool final_block = false;
    while (!final_block) {
      final_block = take(1) != 0;
      switch (take(2)) {
        case 0:
          stored_block();
          break;
        case 1:
          compressed_block(fixed_codes().literals, fixed_codes().distances);
          break;
        case 2:
          dynamic_block();
          break;
        default:
          fail(InflateFailure::kCorrupt, "inflate: reserved block type 3");
      }
    }
    out_.resize(produced());
    return std::move(out_);
  }

  /// Input bytes read so far, counting a partly read byte as read.
  std::size_t consumed() const noexcept {
    return at_ - (bits_ - pad_bits_) / 8;
  }

 private:
  // --- bit buffer ---

  void refill() noexcept {
    if (in_size_ - at_ >= 8) {
      hold_ |= load_le64(in_ + at_) << bits_;
      at_ += (63 - bits_) >> 3;
      bits_ |= 56;
      return;
    }
    while (bits_ <= 56) {
      if (at_ < in_size_) {
        hold_ |= static_cast<std::uint64_t>(in_[at_++]) << bits_;
      } else {
        pad_bits_ += 8;
      }
      bits_ += 8;
    }
  }

  void drop(unsigned count) noexcept {
    hold_ >>= count;
    bits_ -= count;
  }

  /// Throws if the bits consumed so far run past the end of the input.
  void check_input() const {
    if (bits_ < pad_bits_) {
      fail(InflateFailure::kTruncated, "inflate: unexpected end of input");
    }
  }

  /// Reads `count` <= 32 bits, LSB first.
  std::uint32_t take(unsigned count) {
    if (bits_ < count) refill();
    const auto value =
        static_cast<std::uint32_t>(hold_ & ((std::uint64_t{1} << count) - 1));
    drop(count);
    check_input();
    return value;
  }

  /// Decodes one symbol; the buffer must hold at least kMaxBits bits.
  unsigned decode(const Huffman& code) {
    std::uint32_t entry = code.fast(hold_);
    if (entry == 0) {
      entry = code.walk(hold_);
      if (entry == 0) {
        // The bit-at-a-time walk reads all kMaxBits bits before giving up.
        if (bits_ - pad_bits_ < kMaxBits) {
          fail(InflateFailure::kTruncated, "inflate: unexpected end of input");
        }
        fail(InflateFailure::kCorrupt, "inflate: invalid Huffman code");
      }
    }
    drop(entry & 0xF);
    check_input();
    return entry >> 4;
  }

  // --- output ---

  std::size_t produced() const noexcept {
    return static_cast<std::size_t>(op_ - out_.data());
  }

  /// Makes room for `count` more output bytes, or throws at the limit.
  void reserve(std::size_t count) {
    const std::size_t used = produced();
    if (count > max_output_ - used) {
      fail(InflateFailure::kLimit, "inflate: output limit exceeded");
    }
    if (count <= static_cast<std::size_t>(oend_ - op_)) return;
    out_.resize(std::min(max_output_, std::max(used + count, 2 * out_.size())));
    op_ = out_.data() + used;
    oend_ = out_.data() + out_.size();
  }

  // --- blocks ---

  void stored_block() {
    drop(bits_ & 7);  // to the byte boundary; only real bits can sit there
    std::size_t at = consumed();
    hold_ = 0;
    bits_ = 0;
    pad_bits_ = 0;
    if (in_size_ - at < 4) {
      fail(InflateFailure::kTruncated,
           "inflate: unexpected end of stored data");
    }
    const auto len = static_cast<std::uint16_t>(in_[at] | (in_[at + 1] << 8));
    const auto nlen =
        static_cast<std::uint16_t>(in_[at + 2] | (in_[at + 3] << 8));
    at += 4;
    if (len != static_cast<std::uint16_t>(~nlen)) {
      fail(InflateFailure::kCorrupt, "inflate: stored block LEN/NLEN mismatch");
    }
    if (len > max_output_ - produced()) {
      fail(InflateFailure::kLimit, "inflate: output limit exceeded");
    }
    if (in_size_ - at < len) {
      fail(InflateFailure::kTruncated,
           "inflate: unexpected end of stored data");
    }
    reserve(len);
    if (len != 0) std::memcpy(op_, in_ + at, len);
    op_ += len;
    at_ = at + len;
  }

  void dynamic_block() {
    const std::uint32_t hlit = take(5) + 257;
    const std::uint32_t hdist = take(5) + 1;
    const std::uint32_t hclen = take(4) + 4;
    if (hlit > 286 || hdist > 30) {
      fail(InflateFailure::kCorrupt, "inflate: bad HLIT/HDIST");
    }
    static constexpr std::uint8_t kOrder[19] = {
        16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};
    std::array<std::uint8_t, 19> cl_lengths{};
    for (std::uint32_t i = 0; i < hclen; ++i) {
      cl_lengths[kOrder[i]] = static_cast<std::uint8_t>(take(3));
    }
    lengths_code_.build(cl_lengths.data(), cl_lengths.size());

    std::array<std::uint8_t, 286 + 30> lengths{};
    std::uint32_t at = 0;
    const std::uint32_t total = hlit + hdist;
    auto repeat = [&](std::uint8_t value, std::uint32_t times) {
      while (times-- > 0) {
        if (at >= total) {
          fail(InflateFailure::kCorrupt, "inflate: repeat overflows");
        }
        lengths[at++] = value;
      }
    };
    while (at < total) {
      refill();
      const unsigned symbol = decode(lengths_code_);
      if (symbol < 16) {
        lengths[at++] = static_cast<std::uint8_t>(symbol);
      } else if (symbol == 16) {
        if (at == 0) {
          fail(InflateFailure::kCorrupt, "inflate: repeat with no previous");
        }
        const std::uint8_t prev = lengths[at - 1];
        repeat(prev, 3 + take(2));
      } else if (symbol == 17) {
        repeat(0, 3 + take(3));
      } else {  // 18
        repeat(0, 11 + take(7));
      }
    }
    if (lengths[256] == 0) {
      fail(InflateFailure::kCorrupt, "inflate: missing end-of-block code");
    }
    literals_.build(lengths.data(), hlit);
    distances_.build(lengths.data() + hlit, hdist);
    compressed_block(literals_, distances_);
  }

  /// The hot loop. One refill per symbol: a literal/length code, its extra
  /// bits, a distance code and its extra bits take at most 15+5+15+13 = 48
  /// bits, and refill() leaves at least 56.
  void compressed_block(const Huffman& literals, const Huffman& distances) {
    while (true) {
      refill();
      const unsigned symbol = decode(literals);
      if (symbol < 256) {
        if (op_ == oend_) reserve(1);
        *op_++ = static_cast<std::uint8_t>(symbol);
        continue;
      }
      if (symbol == 256) return;  // end of block
      if (symbol > 285) {
        fail(InflateFailure::kCorrupt, "inflate: invalid length symbol");
      }
      const unsigned length_index = symbol - 257;
      const unsigned length_extra = kLengthExtra[length_index];
      const std::size_t length =
          kLengthBase[length_index] +
          static_cast<unsigned>(hold_ & ((1u << length_extra) - 1));
      drop(length_extra);
      check_input();
      const unsigned dist_symbol = decode(distances);
      if (dist_symbol > 29) {
        fail(InflateFailure::kCorrupt, "inflate: invalid distance");
      }
      const unsigned dist_extra = kDistExtra[dist_symbol];
      const std::size_t distance =
          kDistBase[dist_symbol] +
          static_cast<unsigned>(hold_ & ((1u << dist_extra) - 1));
      drop(dist_extra);
      check_input();
      if (distance > produced()) {
        fail(InflateFailure::kCorrupt, "inflate: distance beyond output start");
      }
      if (length > static_cast<std::size_t>(oend_ - op_)) reserve(length);
      const std::uint8_t* from = op_ - distance;
      if (distance >= length) {
        std::memcpy(op_, from, length);
      } else {
        // Overlapping copy: each byte may repeat one written this match.
        for (std::size_t i = 0; i < length; ++i) op_[i] = from[i];
      }
      op_ += length;
    }
  }

  const std::uint8_t* in_;
  std::size_t in_size_;
  std::size_t at_ = 0;  ///< next input byte to load into hold_
  std::uint64_t hold_ = 0;
  unsigned bits_ = 0;
  unsigned pad_bits_ = 0;

  std::size_t max_output_;
  Bytes out_;
  std::uint8_t* op_ = nullptr;    ///< next output byte
  std::uint8_t* oend_ = nullptr;  ///< end of out_'s current size

  Huffman lengths_code_;
  Huffman literals_;
  Huffman distances_;
};

std::uint32_t le32(BytesView data, std::size_t at) {
  if (at + 4 > data.size()) {
    fail(InflateFailure::kTruncated, "inflate: truncated trailer");
  }
  return static_cast<std::uint32_t>(data[at]) |
         (static_cast<std::uint32_t>(data[at + 1]) << 8) |
         (static_cast<std::uint32_t>(data[at + 2]) << 16) |
         (static_cast<std::uint32_t>(data[at + 3]) << 24);
}

}  // namespace

const char* inflate_failure_name(InflateFailure reason) noexcept {
  switch (reason) {
    case InflateFailure::kTruncated:
      return "truncated";
    case InflateFailure::kCorrupt:
      return "corrupt";
    case InflateFailure::kLimit:
      return "limit";
  }
  return "unknown";
}

InflateResult inflate_prefix(BytesView data, const InflateLimits& limits) {
  Inflater inflater(data, limits);
  InflateResult result;
  result.output = inflater.run();
  result.consumed = inflater.consumed();
  return result;
}

Bytes inflate(BytesView deflate_stream, const InflateLimits& limits) {
  return inflate_prefix(deflate_stream, limits).output;
}

std::uint32_t adler32(BytesView data) noexcept {
  std::uint32_t a = 1;
  std::uint32_t b = 0;
  std::size_t at = 0;
  while (at < data.size()) {
    // Largest n such that 255n(n+1)/2 + (n+1)(65520) < 2^32 (zlib's 5552).
    const std::size_t chunk = std::min<std::size_t>(5552, data.size() - at);
    for (std::size_t i = 0; i < chunk; ++i) {
      a += data[at + i];
      b += a;
    }
    a %= 65521;
    b %= 65521;
    at += chunk;
  }
  return (b << 16) | a;
}

bool looks_like_zlib(BytesView data) noexcept {
  if (data.size() < 2) return false;
  const std::uint8_t cmf = data[0];
  if ((cmf & 0x0F) != 8) return false;          // CM must be deflate
  if (((cmf >> 4) & 0x0F) > 7) return false;    // CINFO <= 7
  return ((static_cast<unsigned>(cmf) << 8) | data[1]) % 31 == 0;
}

Bytes zlib_decompress(BytesView stream, const InflateLimits& limits) {
  if (!looks_like_zlib(stream)) {
    fail(InflateFailure::kCorrupt, "zlib: bad header");
  }
  if (stream.size() < 6) {
    fail(InflateFailure::kTruncated, "zlib: short stream");
  }
  if (stream[1] & 0x20) {
    fail(InflateFailure::kCorrupt, "zlib: preset dictionary not supported");
  }
  Inflater inflater(stream.subspan(2), limits);
  Bytes out = inflater.run();
  const std::size_t trailer_at = 2 + inflater.consumed();
  if (trailer_at + 4 > stream.size()) {
    fail(InflateFailure::kTruncated, "zlib: missing Adler-32 trailer");
  }
  const std::uint32_t expected =
      (static_cast<std::uint32_t>(stream[trailer_at]) << 24) |
      (static_cast<std::uint32_t>(stream[trailer_at + 1]) << 16) |
      (static_cast<std::uint32_t>(stream[trailer_at + 2]) << 8) |
      static_cast<std::uint32_t>(stream[trailer_at + 3]);
  if (adler32(out) != expected) {
    fail(InflateFailure::kCorrupt, "zlib: Adler-32 mismatch");
  }
  return out;
}

bool looks_like_gzip(BytesView data) noexcept {
  return data.size() >= 2 && data[0] == 0x1F && data[1] == 0x8B;
}

Bytes gzip_decompress(BytesView stream, const InflateLimits& limits) {
  if (!looks_like_gzip(stream)) {
    fail(InflateFailure::kCorrupt, "gzip: bad magic");
  }
  if (stream.size() < 18) {
    fail(InflateFailure::kTruncated, "gzip: short member");
  }
  if (stream[2] != 8) {
    fail(InflateFailure::kCorrupt, "gzip: unsupported compression method");
  }
  const std::uint8_t flags = stream[3];
  if (flags & 0xE0) {
    fail(InflateFailure::kCorrupt, "gzip: reserved flag bits set");
  }
  std::size_t at = 10;  // magic(2) CM(1) FLG(1) MTIME(4) XFL(1) OS(1)
  if (flags & 0x04) {  // FEXTRA
    if (at + 2 > stream.size()) {
      fail(InflateFailure::kTruncated, "gzip: truncated FEXTRA");
    }
    const std::size_t xlen = stream[at] | (stream[at + 1] << 8);
    at += 2 + xlen;
  }
  auto skip_zstring = [&] {
    while (true) {
      if (at >= stream.size()) {
        fail(InflateFailure::kTruncated, "gzip: truncated string");
      }
      if (stream[at++] == 0) break;
    }
  };
  if (flags & 0x08) skip_zstring();  // FNAME
  if (flags & 0x10) skip_zstring();  // FCOMMENT
  if (flags & 0x02) {                // FHCRC
    if (at + 2 > stream.size()) {
      fail(InflateFailure::kTruncated, "gzip: truncated FHCRC");
    }
    const std::uint16_t expected =
        static_cast<std::uint16_t>(stream[at] | (stream[at + 1] << 8));
    const std::uint16_t actual =
        static_cast<std::uint16_t>(crc32(stream.first(at)) & 0xFFFF);
    if (expected != actual) {
      fail(InflateFailure::kCorrupt, "gzip: header CRC mismatch");
    }
    at += 2;
  }
  if (at >= stream.size()) {
    fail(InflateFailure::kTruncated, "gzip: missing deflate payload");
  }

  Inflater inflater(stream.subspan(at), limits);
  Bytes out = inflater.run();
  const std::size_t trailer_at = at + inflater.consumed();
  const std::uint32_t expected_crc = le32(stream, trailer_at);
  const std::uint32_t expected_size = le32(stream, trailer_at + 4);
  if (crc32(out) != expected_crc) {
    fail(InflateFailure::kCorrupt, "gzip: CRC-32 mismatch");
  }
  if ((out.size() & 0xFFFFFFFFu) != expected_size) {
    fail(InflateFailure::kCorrupt, "gzip: ISIZE mismatch");
  }
  return out;
}

}  // namespace dpisvc::compress
