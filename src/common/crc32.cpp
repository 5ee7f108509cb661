#include "common/crc32.hpp"

#include <array>

namespace raptrack {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table, and
/// kTables[k][n] is the CRC of byte n followed by k zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
using Tables = std::array<std::array<u32, 256>, 8>;

constexpr Tables make_tables() {
  Tables tables{};
  for (u32 n = 0; n < 256; ++n) {
    u32 c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb8'8320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (u32 n = 0; n < 256; ++n) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const u32 prev = tables[k - 1][n];
      tables[k][n] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

}  // namespace

u32 crc32_init() { return 0xffff'ffffu; }

u32 crc32_update(u32 state, std::span<const u8> bytes) {
  const u8* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; n -= 8, p += 8) {
    const u32 lo = state ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    state = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
            kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
            kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    state = kTables[0][(state ^ *p) & 0xff] ^ (state >> 8);
  }
  return state;
}

u32 crc32_final(u32 state) { return state ^ 0xffff'ffffu; }

u32 crc32(std::span<const u8> bytes) {
  return crc32_final(crc32_update(crc32_init(), bytes));
}

}  // namespace raptrack
