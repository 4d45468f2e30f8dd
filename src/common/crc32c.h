// CRC32C (Castagnoli) checksums for on-disk page integrity. On x86-64 CPUs
// with SSE4.2 the checksum runs on the `crc32` instruction, 8 bytes per step;
// elsewhere a portable slice-by-8 table implementation computes the same
// value. The choice is made once, at first use, from CPUID. The polynomial's
// error-detection properties are what storage systems standardized on
// (iSCSI, ext4, leveldb). Stored CRCs are masked (leveldb idiom) so
// checksumming a buffer that itself contains an embedded CRC does not
// degenerate.
#pragma once

#include <cstddef>
#include <cstdint>

namespace paradise {

/// CRC32C of `data[0, n)`, seeded with the standard initial value.
uint32_t Crc32c(const char* data, size_t n);

/// Extends `crc` (a value previously returned by Crc32c/Crc32cExtend) with
/// `data[0, n)`, as if the two buffers had been concatenated.
uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n);

/// Crc32c through the portable slice-by-8 tables, whatever the CPU supports.
/// The reference for tests and benchmarks of the hardware path.
uint32_t Crc32cPortable(const char* data, size_t n);

/// True when Crc32c/Crc32cExtend run on the SSE4.2 `crc32` instruction.
bool Crc32cHardwareAccelerated();

/// Masks a CRC before storing it alongside the data it covers.
inline uint32_t MaskCrc32c(uint32_t crc) {
  // Rotate right by 15 bits and add a constant (leveldb's kMaskDelta).
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

/// Inverse of MaskCrc32c.
inline uint32_t UnmaskCrc32c(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace paradise
