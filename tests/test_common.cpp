// Unit tests: bit utilities, checked narrowing, RNG determinism, hex format,
// CRC-32.
#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/crc32.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace raptrack {
namespace {

TEST(Bits, ExtractAndInsertRoundTrip) {
  const u32 word = 0xdeadbeef;
  EXPECT_EQ(bits(word, 31, 24), 0xdeu);
  EXPECT_EQ(bits(word, 23, 16), 0xadu);
  EXPECT_EQ(bits(word, 7, 0), 0xefu);
  EXPECT_EQ(bits(word, 31, 0), word);

  u32 value = 0;
  value = set_bits(value, 31, 24, 0x12);
  value = set_bits(value, 23, 16, 0x34);
  value = set_bits(value, 15, 0, 0x5678);
  EXPECT_EQ(value, 0x12345678u);
}

TEST(Bits, SetBitsMasksOverflowingField) {
  EXPECT_EQ(set_bits(0, 3, 0, 0xff), 0xfu);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0xfff, 12), -1);
  EXPECT_EQ(sign_extend(0x800, 12), -2048);
  EXPECT_EQ(sign_extend(0x7ff, 12), 2047);
  EXPECT_EQ(sign_extend(0x0, 12), 0);
  EXPECT_EQ(sign_extend(0xffffff, 24), -1);
}

TEST(Bits, FitsSigned) {
  EXPECT_TRUE(fits_signed(2047, 12));
  EXPECT_TRUE(fits_signed(-2048, 12));
  EXPECT_FALSE(fits_signed(2048, 12));
  EXPECT_FALSE(fits_signed(-2049, 12));
}

TEST(Bits, FitsUnsigned) {
  EXPECT_TRUE(fits_unsigned(65535, 16));
  EXPECT_FALSE(fits_unsigned(65536, 16));
}

TEST(Bits, AlignUp) {
  EXPECT_EQ(align_up(0, 16), 0u);
  EXPECT_EQ(align_up(1, 16), 16u);
  EXPECT_EQ(align_up(16, 16), 16u);
  EXPECT_EQ(align_up(17, 4), 20u);
}

TEST(CheckedNarrow, AcceptsFittingValues) {
  EXPECT_EQ(checked_narrow<u8>(255), 255);
  EXPECT_EQ(checked_narrow<i8>(-128), -128);
}

TEST(CheckedNarrow, ThrowsOnOverflow) {
  EXPECT_THROW(checked_narrow<u8>(256), std::out_of_range);
  EXPECT_THROW(checked_narrow<u8>(-1), std::out_of_range);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextRangeInclusive) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Hex, Format32) {
  EXPECT_EQ(hex32(0x00200000), "0x0020_0000");
  EXPECT_EQ(hex32(0xffffffff), "0xffff_ffff");
}

TEST(Hex, Digest) {
  const u8 bytes[] = {0xde, 0xad, 0x00};
  EXPECT_EQ(hex_digest(bytes), "dead00");
}

// Bit-at-a-time CRC-32 (reflected, polynomial 0xEDB88320): the definition
// the table-driven implementation must reproduce.
u32 crc32_bitwise(std::span<const u8> bytes) {
  u32 crc = 0xffff'ffffu;
  for (const u8 byte : bytes) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xedb8'8320u : crc >> 1;
    }
  }
  return crc ^ 0xffff'ffffu;
}

TEST(Crc32, CheckValue) {
  const std::string_view check = "123456789";
  const std::span<const u8> bytes(reinterpret_cast<const u8*>(check.data()),
                                  check.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceOverRandomLengths) {
  Xoshiro256 rng(0xc3c32);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<u8> data(rng.next_below(301));
    for (u8& byte : data) byte = static_cast<u8>(rng.next());
    EXPECT_EQ(crc32(data), crc32_bitwise(data)) << "length " << data.size();
    // Streaming in two chunks at a random split gives the same value.
    const size_t split = rng.next_below(data.size() + 1);
    const std::span<const u8> all(data);
    u32 state = crc32_init();
    state = crc32_update(state, all.first(split));
    state = crc32_update(state, all.subspan(split));
    EXPECT_EQ(crc32_final(state), crc32_bitwise(data))
        << "length " << data.size() << ", split " << split;
  }
}

}  // namespace
}  // namespace raptrack
