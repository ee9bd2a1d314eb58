#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define VIEWMAT_CRC32C_X86 1
#endif

namespace viewmat {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
/// kTables[k][b] is the CRC of byte b followed by k zero bytes.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendTable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (n >= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
        kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
        kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) c = (c >> 8) ^ kTables[0][(c ^ *p++) & 0xff];
  return ~c;
}

#ifdef VIEWMAT_CRC32C_X86

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  // Byte steps up to an 8-byte boundary, then one instruction per word.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t c64 = c;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    n -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (n-- > 0) c = _mm_crc32_u8(c, *p++);
  return ~c;
}

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n) {
  return ExtendTable(crc, data, n);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const bool hardware = crc32c_internal::HardwareAvailable();
  return hardware ? crc32c_internal::ExtendHardware(crc, data, n)
                  : crc32c_internal::ExtendTable(crc, data, n);
}

}  // namespace viewmat
