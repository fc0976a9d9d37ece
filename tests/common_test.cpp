// Unit tests for the common substrate: bytes, rng, checksums, timing.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace dpisvc {
namespace {

// --- bytes -----------------------------------------------------------------

TEST(Bytes, TextRoundTrip) {
  const Bytes b = to_bytes("hello\0world");
  EXPECT_EQ(as_text(b), "hello");  // string_view literal stops at NUL
  const Bytes b2 = to_bytes(std::string_view("a\0b", 3));
  EXPECT_EQ(b2.size(), 3u);
  EXPECT_EQ(to_string(b2).size(), 3u);
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  EXPECT_EQ(to_hex(b), "deadbeef007f");
  EXPECT_EQ(from_hex("deadbeef007f"), b);
  EXPECT_EQ(from_hex("DEADBEEF007F"), b);
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Bytes, EmptyHex) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, BigEndianRoundTrip) {
  Bytes out;
  put_be(out, 0x0102030405060708ULL, 8);
  put_be(out, 0xBEEF, 2);
  put_be(out, 0xABCDEF, 3);
  EXPECT_EQ(out.size(), 13u);
  EXPECT_EQ(get_be(out, 0, 8), 0x0102030405060708ULL);
  EXPECT_EQ(get_be(out, 8, 2), 0xBEEFu);
  EXPECT_EQ(get_be(out, 10, 3), 0xABCDEFu);
}

TEST(Bytes, GetBeOutOfRangeThrows) {
  const Bytes b{1, 2, 3};
  EXPECT_THROW(get_be(b, 2, 2), std::out_of_range);
  EXPECT_THROW(get_be(b, 3, 1), std::out_of_range);
  EXPECT_NO_THROW(get_be(b, 2, 1));
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.uniform(0, 7));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(5, 4), std::invalid_argument);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesP) {
  Rng rng(9);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, WeightedFollowsWeights) {
  Rng rng(13);
  const double weights[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.weighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedRejectsAllZero) {
  Rng rng(1);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(weights), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --- checksum -----------------------------------------------------------------

TEST(Checksum, InternetChecksumKnownVector) {
  // Classic RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> sum 0xddf2.
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0xddf2);
}

TEST(Checksum, InternetChecksumOddLength) {
  const Bytes data{0x01};
  EXPECT_EQ(internet_checksum(data), 0x0100);
}

TEST(Checksum, ComplementVerifies) {
  // Header with embedded complement folds to 0xFFFF.
  Bytes header{0x45, 0x00, 0x00, 0x28, 0x12, 0x34, 0x40, 0x00, 0x40, 0x06,
               0x00, 0x00, 0x0A, 0x00, 0x00, 0x01, 0x0A, 0x00, 0x00, 0x02};
  const std::uint16_t c = static_cast<std::uint16_t>(~internet_checksum(header));
  header[10] = static_cast<std::uint8_t>(c >> 8);
  header[11] = static_cast<std::uint8_t>(c & 0xFF);
  EXPECT_EQ(internet_checksum(header), 0xFFFF);
}

TEST(Checksum, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (IEEE reference value).
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Checksum, Crc32Empty) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

/// CRC-32 straight from the polynomial: one bit at a time, no tables.
std::uint32_t crc32_bitwise(BytesView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Checksum, Crc32SlicingMatchesBitwiseAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover the bytewise tail alone, one to eight 8-byte
  // steps, and every tail length after them; offsets 0..7 move the start
  // across every alignment of the 8-byte loads.
  Rng rng(0xC4C32);
  Bytes buffer(64 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const BytesView view = BytesView(buffer).subspan(offset, length);
      ASSERT_EQ(crc32(view), crc32_bitwise(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Checksum, Fnv1aKnownVector) {
  // FNV-1a 64-bit of "a" = 0xaf63dc4c8601ec8c.
  EXPECT_EQ(fnv1a(to_bytes("a")), 0xaf63dc4c8601ec8cULL);
  // Empty input returns the offset basis.
  EXPECT_EQ(fnv1a({}), 0xCBF29CE484222325ULL);
}

// --- timer ----------------------------------------------------------------------

TEST(Timer, ElapsedIsMonotonic) {
  Stopwatch sw;
  const double t1 = sw.elapsed_seconds();
  const double t2 = sw.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(Timer, ToMbps) {
  EXPECT_DOUBLE_EQ(to_mbps(1'000'000, 8.0), 1.0);  // 1MB over 8s = 1 Mbps
  EXPECT_DOUBLE_EQ(to_mbps(125'000'000, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(to_mbps(1000, 0.0), 0.0);  // degenerate duration
}

}  // namespace
}  // namespace dpisvc
