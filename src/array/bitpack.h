// Little-endian bit-stream primitives for the packed chunk codecs
// (array/chunk.cc): fixed-width fields of 0..64 bits written back-to-back
// into a byte buffer, addressed by absolute bit position so readers can
// jump straight to field i at bit i*width — the random access the §4.2
// probe loop needs, which is why the codecs use fixed-width packing instead
// of a stream coder.
//
// Bit order: field bits fill bytes from the least-significant bit upward,
// so a field never depends on any byte past ceil((bit_pos + nbits) / 8) and
// a stream of n fields of w bits occupies exactly ceil(n*w / 8) bytes —
// the size formulas in Chunk::SerializedBytes rely on this.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/coding.h"

namespace paradise {

/// All-ones mask of the low `nbits` bits (nbits <= 64).
inline constexpr uint64_t BitMask(unsigned nbits) {
  return nbits >= 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
}

/// Smallest width that can hold `v` (0 for v == 0).
inline constexpr unsigned BitWidth(uint64_t v) {
  unsigned w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// ORs the low `nbits` of `v` into `base` at bit `bit_pos`. The buffer must
/// be pre-zeroed (fields are only ever written once) and large enough for
/// the full field.
inline void WriteBits(char* base, uint64_t bit_pos, unsigned nbits,
                      uint64_t v) {
  if (nbits == 0) return;
  size_t byte = static_cast<size_t>(bit_pos >> 3);
  const unsigned shift = static_cast<unsigned>(bit_pos & 7);
  // At most 64 + 7 = 71 significant bits; a 128-bit shift register keeps
  // the byte loop branch-free.
  unsigned __int128 wide =
      static_cast<unsigned __int128>(v & BitMask(nbits)) << shift;
  const unsigned total = shift + nbits;
  for (unsigned consumed = 0; consumed < total; consumed += 8, ++byte) {
    base[byte] = static_cast<char>(static_cast<uint8_t>(base[byte]) |
                                   static_cast<uint8_t>(wide & 0xff));
    wide >>= 8;
  }
}

/// Reads an `nbits`-wide field from `base` at bit `bit_pos`. Touches only
/// the bytes the field occupies, so reading the final field of a stream
/// never runs past the stream's ceil(total_bits / 8) bytes.
inline uint64_t ReadBits(const char* base, uint64_t bit_pos, unsigned nbits) {
  if (nbits == 0) return 0;
  const size_t byte = static_cast<size_t>(bit_pos >> 3);
  const unsigned shift = static_cast<unsigned>(bit_pos & 7);
  const unsigned nbytes = (shift + nbits + 7) / 8;
  unsigned __int128 wide = 0;
  for (unsigned i = 0; i < nbytes; ++i) {
    wide |= static_cast<unsigned __int128>(static_cast<uint8_t>(base[byte + i]))
            << (8 * i);
  }
  return static_cast<uint64_t>(wide >> shift) & BitMask(nbits);
}

/// Unpacks the `n` consecutive `nbits`-wide fields first..first+n-1 of the
/// stream [base, end) into `out` (out[k] = field first+k). The block decoder
/// of the packed chunk codecs.
///
/// A field whose 8-byte window [bit_pos/8, bit_pos/8 + 8) lies inside the
/// stream is read with one unaligned 64-bit load, a shift and a mask; that
/// covers every width up to 56 (shift <= 7 leaves 57 bits in the word).
/// Wider fields and the stream's last few fields, whose window would cross
/// `end`, fall back to ReadBits — so no byte at or past `end` is ever read.
template <typename T>
inline void UnpackBits(const char* base, const char* end, uint64_t first,
                       unsigned nbits, uint32_t n, T* out) {
  if (nbits == 0) {
    std::fill_n(out, n, T{0});
    return;
  }
  // Fields [first, first + fast) start at or before max_pos, the last bit
  // whose byte still has 8 stream bytes from it on. Checking the request's
  // last field first keeps the usual whole-block call free of the division.
  uint32_t fast = 0;
  const size_t len = static_cast<size_t>(end - base);
  if (nbits <= 56 && len >= 8 && n > 0) {
    const uint64_t max_pos = (uint64_t{len} - 8) * 8 + 7;
    if ((first + n - 1) * nbits <= max_pos) {
      fast = n;
    } else if (first * nbits <= max_pos) {
      fast = static_cast<uint32_t>(max_pos / nbits + 1 - first);
    }
  }
  const uint64_t mask = BitMask(nbits);
  uint64_t bit_pos = first * nbits;
  uint32_t k = 0;
  for (; k < fast; ++k, bit_pos += nbits) {
    const uint64_t word =
        DecodeFixed64(base + static_cast<size_t>(bit_pos >> 3));
    out[k] = static_cast<T>((word >> (bit_pos & 7)) & mask);
  }
  for (; k < n; ++k, bit_pos += nbits) {
    out[k] = static_cast<T>(ReadBits(base, bit_pos, nbits));
  }
}

}  // namespace paradise
