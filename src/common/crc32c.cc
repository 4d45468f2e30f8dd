#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PARADISE_CRC32C_HAVE_SSE42 1
#endif

namespace paradise {

namespace {

// Reflected CRC32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

struct Crc32cTables {
  // tables[k][b]: CRC contribution of byte b seen k positions before the end
  // of an 8-byte group (slice-by-8).
  uint32_t t[8][256];

  Crc32cTables() {
    for (uint32_t b = 0; b < 256; ++b) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][b] = crc;
    }
    for (uint32_t b = 0; b < 256; ++b) {
      for (int k = 1; k < 8; ++k) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  const auto& tb = Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  while (n >= 8) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = tb.t[7][c & 0xff] ^ tb.t[6][(c >> 8) & 0xff] ^
        tb.t[5][(c >> 16) & 0xff] ^ tb.t[4][c >> 24] ^ tb.t[3][p[4]] ^
        tb.t[2][p[5]] ^ tb.t[1][p[6]] ^ tb.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = (c >> 8) ^ tb.t[0][(c ^ *p++) & 0xff];
  }
  return c ^ 0xffffffffu;
}

#ifdef PARADISE_CRC32C_HAVE_SSE42
// The only function built for SSE4.2: the rest of the library stays runnable
// on baseline x86-64, and this one is called only when CPUID reports the
// instruction.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t c = crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
    data += 8;
    n -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n-- > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*data++));
  }
  return c32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ActiveExtend() {
  static const ExtendFn fn = [] {
#ifdef PARADISE_CRC32C_HAVE_SSE42
    if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
    return &ExtendPortable;
  }();
  return fn;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const char* data, size_t n) {
  return ActiveExtend()(crc, data, n);
}

uint32_t Crc32c(const char* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

uint32_t Crc32cPortable(const char* data, size_t n) {
  return ExtendPortable(0, data, n);
}

bool Crc32cHardwareAccelerated() { return ActiveExtend() != &ExtendPortable; }

}  // namespace paradise
