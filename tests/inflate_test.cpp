// Tests for the table-driven inflater against the bit-at-a-time reference
// (tests/reference_inflate.*) and against streams from a real encoder.
//
//  * Differential: >= 100k mutated workload-like gzip, zlib and raw streams
//    (bit flips, truncations, overwrites, trailing garbage, random output
//    limits) must give the same accept/reject outcome and failure reason,
//    byte-identical output and the same consumed-byte position as the
//    reference.
//  * Fixtures: streams written by python3's zlib (tools/gen_inflate_
//    fixtures.py) at levels 0/1/6/9 with every strategy, multi-block and
//    mixed stored/dynamic streams, and literal codes longer than the
//    decoder's first-level table, decoded through all three entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "compress/inflate.hpp"
#include "reference_inflate.hpp"
#include "workload/traffic_gen.hpp"

namespace dpisvc::compress {
namespace {

/// First-level table width of src/compress/inflate.cpp (kFastBits): codes
/// longer than this take the decoder's canonical-walk fallback.
constexpr unsigned kDecoderTableBits = 10;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

// --- fixtures ------------------------------------------------------------

struct Fixture {
  std::string name;
  std::string note;
  Bytes gzip;   ///< as written by python's zlib
  Bytes plain;
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> all = [] {
    const std::string dir = DPISVC_INFLATE_FIXTURES;
    std::vector<Fixture> out;
    std::ifstream manifest(dir + "/MANIFEST");
    std::string line;
    while (std::getline(manifest, line)) {
      std::istringstream fields(line);
      Fixture f;
      std::string plain_name;
      fields >> f.name >> plain_name;
      std::getline(fields, f.note);
      f.gzip = read_file(dir + "/" + f.name);
      f.plain = read_file(dir + "/" + plain_name);
      out.push_back(std::move(f));
    }
    return out;
  }();
  return all;
}

/// The raw DEFLATE stream inside a member with a bare 10-byte header.
Bytes raw_of(const Bytes& gzip) {
  return Bytes(gzip.begin() + 10, gzip.end() - 8);
}

Bytes zlib_wrap(BytesView raw, BytesView plain) {
  Bytes out;
  out.reserve(raw.size() + 6);
  out.push_back(0x78);
  out.push_back(0x9C);
  out.insert(out.end(), raw.begin(), raw.end());
  const std::uint32_t check = adler32(plain);
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(check >> shift));
  }
  return out;
}

/// Longest literal/length code declared by the stream's first block, or 0
/// when that block is not dynamic. A small independent header parser.
unsigned first_block_max_literal_length(BytesView raw) {
  std::size_t bit = 0;
  auto take = [&](unsigned n) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < n; ++i, ++bit) {
      v |= static_cast<std::uint32_t>((raw[bit / 8] >> (bit % 8)) & 1u) << i;
    }
    return v;
  };
  take(1);  // BFINAL
  if (take(2) != 2) return 0;
  const std::uint32_t hlit = take(5) + 257;
  const std::uint32_t hdist = take(5) + 1;
  const std::uint32_t hclen = take(4) + 4;
  static constexpr int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                     11, 4,  12, 3, 13, 2, 14, 1, 15};
  std::array<unsigned, 19> cl{};
  for (std::uint32_t i = 0; i < hclen; ++i) cl[kOrder[i]] = take(3);
  // Canonical decode of the code-length code, one bit at a time.
  auto decode_cl = [&] {
    std::uint32_t code = 0;
    for (unsigned len = 1; len <= 7; ++len) {
      code = (code << 1) | take(1);
      std::uint32_t first = 0;
      for (unsigned l = 1; l < len; ++l) {
        for (unsigned s = 0; s < 19; ++s) first += cl[s] == l;
        first <<= 1;
      }
      for (unsigned s = 0; s < 19; ++s) {
        if (cl[s] != len) continue;
        if (code == first) return s;
        ++first;
      }
    }
    ADD_FAILURE() << "bad code-length code";
    return 0u;
  };
  std::vector<unsigned> lengths;
  while (lengths.size() < hlit + hdist) {
    const unsigned sym = decode_cl();
    if (sym < 16) {
      lengths.push_back(sym);
    } else if (sym == 16) {
      const unsigned prev = lengths.back();
      lengths.insert(lengths.end(), 3 + take(2), prev);
    } else {
      lengths.insert(lengths.end(), sym == 17 ? 3 + take(3) : 11 + take(7), 0);
    }
  }
  return *std::max_element(lengths.begin(), lengths.begin() + hlit);
}

TEST(InflateFixtures, ZlibStreamsDecodeThroughEveryEntryPoint) {
  ASSERT_GE(fixtures().size(), 27u);
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE(f.name + ":" + f.note);
    const Bytes raw = raw_of(f.gzip);
    EXPECT_EQ(gzip_decompress(f.gzip), f.plain);
    EXPECT_EQ(inflate(raw), f.plain);
    const InflateResult prefix = inflate_prefix(raw);
    EXPECT_EQ(prefix.output, f.plain);
    EXPECT_EQ(prefix.consumed, raw.size());
    EXPECT_EQ(zlib_decompress(zlib_wrap(raw, f.plain)), f.plain);
  }
}

TEST(InflateFixtures, SomeFixtureDeclaresCodesLongerThanTheTable) {
  unsigned longest = 0;
  std::size_t dynamic = 0;
  for (const Fixture& f : fixtures()) {
    const unsigned len = first_block_max_literal_length(raw_of(f.gzip));
    dynamic += len != 0;
    longest = std::max(longest, len);
  }
  EXPECT_GE(dynamic, 10u);
  EXPECT_GT(longest, kDecoderTableBits);
  EXPECT_LE(longest, 15u);
}

/// Every cut near either end of a stream, and every 13th in between.
std::size_t next_cut(std::size_t cut, std::size_t size) {
  return cut < 64 || cut + 64 >= size ? cut + 1 : cut + 13;
}

TEST(InflateFixtures, PrefixesFailAsTruncated) {
  // A strict prefix of a valid stream always lacks bits the decoder needs
  // (its last byte holds at least one bit of the final block or trailer).
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE(f.name);
    const Bytes raw = raw_of(f.gzip);
    for (std::size_t cut = 0; cut < raw.size();
         cut = next_cut(cut, raw.size())) {
      try {
        (void)inflate(BytesView(raw).first(cut));
        ADD_FAILURE() << "raw prefix " << cut << " accepted";
      } catch (const InflateError& e) {
        ASSERT_EQ(e.reason(), InflateFailure::kTruncated) << cut << e.what();
      }
    }
    for (std::size_t cut = 2; cut < f.gzip.size();
         cut = next_cut(cut, f.gzip.size())) {
      try {
        (void)gzip_decompress(BytesView(f.gzip).first(cut));
        ADD_FAILURE() << "gzip prefix " << cut << " accepted";
      } catch (const InflateError& e) {
        ASSERT_EQ(e.reason(), InflateFailure::kTruncated) << cut << e.what();
      }
    }
  }
}

TEST(InflateFixtures, OutputLimitIsExact) {
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE(f.name);
    InflateLimits limits;
    limits.max_output = f.plain.size();
    EXPECT_EQ(gzip_decompress(f.gzip, limits), f.plain);
    limits.max_output = f.plain.size() - 1;
    try {
      (void)gzip_decompress(f.gzip, limits);
      ADD_FAILURE() << "limit not enforced";
    } catch (const InflateError& e) {
      EXPECT_EQ(e.reason(), InflateFailure::kLimit);
    }
  }
}

TEST(Inflate, ConsumedStopsAtTheFinalBlock) {
  const Bytes plain = to_bytes("consumed position check, consumed position");
  for (auto strategy :
       {DeflateStrategy::kStored, DeflateStrategy::kFixedHuffman}) {
    Bytes stream = deflate(plain, strategy);
    const std::size_t size = stream.size();
    for (std::uint8_t b : {0x00, 0xFF, 0x5A}) stream.push_back(b);
    const InflateResult result = inflate_prefix(stream);
    EXPECT_EQ(result.output, plain);
    EXPECT_EQ(result.consumed, size);
  }
}

TEST(Inflate, FailureReasonsAreNamed) {
  EXPECT_STREQ(inflate_failure_name(InflateFailure::kTruncated), "truncated");
  EXPECT_STREQ(inflate_failure_name(InflateFailure::kCorrupt), "corrupt");
  EXPECT_STREQ(inflate_failure_name(InflateFailure::kLimit), "limit");
}

// --- differential against the reference -----------------------------------

using reference::compare;
using reference::Wrapper;

struct Base {
  Bytes plain;
  Bytes raw;
  Bytes gzip;
  Bytes zlib;
};

/// Workload-like members: HTTP bodies of the gzip_bodies traffic mix,
/// compressed the way the service's traffic is (fixed Huffman), a stored
/// variant of some, plus the zlib-written dynamic fixtures.
const std::vector<Base>& bases() {
  static const std::vector<Base> all = [] {
    std::vector<Base> out;
    workload::TrafficConfig traffic;
    traffic.num_packets = 96;
    traffic.num_flows = 96;
    traffic.min_payload = 600;
    traffic.max_payload = 2400;
    traffic.seed = 12;
    for (const auto& p : workload::generate_http_trace(traffic)) {
      const auto strategy = out.size() % 8 == 7
                                ? DeflateStrategy::kStored
                                : DeflateStrategy::kFixedHuffman;
      Base b;
      b.plain = p.payload;
      b.raw = deflate(b.plain, strategy);
      b.gzip = gzip_compress(b.plain, strategy);
      b.zlib = zlib_compress(b.plain, strategy);
      out.push_back(std::move(b));
    }
    for (const Fixture& f : fixtures()) {
      Base b;
      b.plain = f.plain;
      b.raw = raw_of(f.gzip);
      b.gzip = f.gzip;
      b.zlib = zlib_wrap(b.raw, b.plain);
      out.push_back(std::move(b));
    }
    return out;
  }();
  return all;
}

Bytes mutate(const Bytes& clean, Rng& rng) {
  Bytes m = clean;
  auto flip_bits = [&] {
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t i = 0; i < flips && !m.empty(); ++i) {
      m[rng.index(m.size())] ^= static_cast<std::uint8_t>(1u << rng.index(8));
    }
  };
  switch (rng.index(6)) {
    case 0:
      flip_bits();
      break;
    case 1:
      m.resize(rng.index(m.size() + 1));
      break;
    case 2:
      flip_bits();
      m.resize(rng.index(m.size() + 1));
      break;
    case 3: {  // overwrite a short span with random bytes
      const std::size_t at = rng.index(m.size());
      const std::size_t span =
          std::min<std::size_t>(1 + rng.index(8), m.size() - at);
      for (std::size_t i = 0; i < span; ++i) {
        m[at + i] = static_cast<std::uint8_t>(rng.next());
      }
      break;
    }
    case 4: {  // trailing garbage: the stream end must not move
      const std::size_t extra = 1 + rng.index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        m.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      break;
    }
    default:  // clean
      break;
  }
  return m;
}

class InflateDifferential : public ::testing::TestWithParam<int> {};

constexpr int kDifferentialShards = 8;
constexpr std::size_t kCasesPerShard = 12800;  // 8 x 12800 = 102400 cases

TEST_P(InflateDifferential, MatchesReferenceOnMutatedStreams) {
  Rng rng(0x1f8b0800ULL + static_cast<std::uint64_t>(GetParam()));
  std::array<std::size_t, kInflateFailureCount> reasons{};
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kCasesPerShard; ++i) {
    const Base& base = bases()[rng.index(bases().size())];
    const auto wrapper = static_cast<Wrapper>(i % 3);
    const Bytes& clean = wrapper == Wrapper::kRaw    ? base.raw
                         : wrapper == Wrapper::kGzip ? base.gzip
                                                     : base.zlib;
    const Bytes input = mutate(clean, rng);
    InflateLimits limits;
    limits.max_output = rng.bernoulli(0.25)
                            ? rng.index(2 * base.plain.size() + 1)
                            : std::size_t{1} << 20;
    const reference::Outcome want =
        reference::decode(true, wrapper, input, limits);
    const reference::Outcome got =
        reference::decode(false, wrapper, input, limits);
    const std::string diff = compare(want, got);
    ASSERT_TRUE(diff.empty())
        << "case " << i << " (wrapper " << static_cast<int>(wrapper)
        << ", max_output " << limits.max_output << ", input "
        << to_hex(BytesView(input).first(
               std::min<std::size_t>(input.size(), 64)))
        << "...): " << diff;
    if (want.ok) {
      ++accepted;
    } else {
      ++reasons[static_cast<std::size_t>(want.reason)];
    }
  }
  // The mutation mix must reach every outcome, or the check proves little.
  EXPECT_GT(accepted, kCasesPerShard / 10);
  for (std::size_t r = 0; r < kInflateFailureCount; ++r) {
    EXPECT_GT(reasons[r], kCasesPerShard / 100)
        << inflate_failure_name(static_cast<InflateFailure>(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, InflateDifferential,
                         ::testing::Range(0, kDifferentialShards));

}  // namespace
}  // namespace dpisvc::compress
