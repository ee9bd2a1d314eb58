#ifndef VIEWMAT_COMMON_CRC32C_H_
#define VIEWMAT_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace viewmat {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum of
/// iSCSI (RFC 3720), ext4 metadata and most log-structured stores. It
/// detects every single-bit, double-bit and odd-weight error in a record
/// and every burst up to 32 bits, which FNV-style hashes do not promise.
///
/// Uses the SSE4.2 `crc32` instruction when the CPU has it and a
/// slicing-by-8 table otherwise; both produce identical values.

/// Extends `crc` (a finished CRC-32C of some prefix, 0 for the empty
/// prefix) over `n` more bytes: Crc32cExtend(Crc32c(a), b) == Crc32c(a ++ b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC-32C of `n` bytes.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

namespace crc32c_internal {

/// The two kernels behind Crc32cExtend, exposed so tests can check them
/// against each other. ExtendHardware may only be called when
/// HardwareAvailable() is true.
uint32_t ExtendTable(uint32_t crc, const void* data, size_t n);
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n);
bool HardwareAvailable();

}  // namespace crc32c_internal

}  // namespace viewmat

#endif  // VIEWMAT_COMMON_CRC32C_H_
