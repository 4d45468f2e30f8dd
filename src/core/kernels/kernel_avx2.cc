// AVX2 decode and unpack kernels. This is the only translation unit compiled
// with -mavx2 (set per-file in src/CMakeLists.txt); kernel_dispatch.cc
// selects it at run time only when the build defined
// PARADISE_KERNEL_HAVE_AVX2 *and* CPUID reports the feature, so no AVX2
// instruction can execute elsewhere. For the same reason it calls no inline
// function with a non-trivial body from another header (an AVX2 copy could
// be linked into baseline callers): the portable tails of the unpack are
// ChunkView's out-of-line readers in array/chunk.cc.
//
// Decode. Each u32 offset is zero-extended into a u64 lane, and the 64-bit
// high-multiply against a magic reciprocal decomposes as
//   mulhi64(n, m) = (n*hi(m) + ((n*lo(m)) >> 32)) >> 32     (n < 2^32)
// — two VPMULUDQ, two shifts, one add per division. The decode is one fused
// pass: one such division per 4 offsets, then two VPGATHERQQ (outer[q],
// inner[r]) and an add. The arithmetic is the exact expression decode_inl.h
// evaluates, so results are bit-identical to the scalar kernel.
//
// Unpack. A diff-sequence block's gaps and values are fixed-width fields
// packed back to back (array/chunk.cc). Eight consecutive w-bit fields span
// exactly w bytes, so the bit phase of field 8j within its first byte is the
// same for every j of a block: one (width, phase) pattern — a VPSHUFB mask
// that moves each field's four bytes into its 32-bit lane, eight VPSRLVD
// shift counts, and the byte offset of the high half's window — serves the
// whole block. A step is one two-window load, a shuffle, a shift and a mask.
// A field of w <= 25 bits at phase <= 7 fits one lane. Gaps become offsets
// by an in-register prefix sum; values get the bias as they widen to int64.
#include "core/kernels/consolidate_kernel.h"
#include "core/kernels/decode_inl.h"

#if defined(__AVX2__)
#include <immintrin.h>

#include <array>

namespace paradise::kernels {

namespace {

/// mulhi64(n, magic) on 4 u64 lanes that each hold a value < 2^32, with the
/// magic's halves pre-splatted.
inline __m256i MulHi4(__m256i n, __m256i magic_hi, __m256i magic_lo) {
  const __m256i nhi = _mm256_mul_epu32(n, magic_hi);
  const __m256i nlo = _mm256_srli_epi64(_mm256_mul_epu32(n, magic_lo), 32);
  return _mm256_srli_epi64(_mm256_add_epi64(nhi, nlo), 32);
}

inline __m256i Load4(const uint32_t* offsets) {
  return _mm256_cvtepu32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(offsets)));
}

inline __m256i Splat(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

/// Widest field a 32-bit lane holds at every bit phase: 7 + 25 = 32.
constexpr unsigned kMaxLaneBits = 25;

/// The lane layout of eight consecutive w-bit fields whose first starts at
/// bit `phase` of the window's first byte. Fields 0-3 are read from a
/// 16-byte window at the step's first byte, fields 4-7 from one at
/// hi_offset; shuffle[4k + j] is the window byte that becomes byte j of
/// field k's lane.
struct alignas(64) UnpackPattern {
  uint8_t shuffle[32];
  uint8_t shift[8];
  uint32_t hi_offset;
};

constexpr std::array<UnpackPattern, (kMaxLaneBits + 1) * 8> MakePatterns() {
  std::array<UnpackPattern, (kMaxLaneBits + 1) * 8> table{};
  for (unsigned w = 0; w <= kMaxLaneBits; ++w) {
    for (unsigned phase = 0; phase < 8; ++phase) {
      UnpackPattern& p = table[w * 8 + phase];
      p.hi_offset = (phase + 4 * w) / 8;
      for (unsigned k = 0; k < 8; ++k) {
        const unsigned bit = phase + k * w;
        const unsigned window = k < 4 ? 0 : p.hi_offset;
        p.shift[k] = static_cast<uint8_t>(bit % 8);
        for (unsigned j = 0; j < 4; ++j) {
          p.shuffle[4 * k + j] = static_cast<uint8_t>(bit / 8 - window + j);
        }
      }
    }
  }
  return table;
}

constexpr std::array<UnpackPattern, (kMaxLaneBits + 1) * 8> kPatterns =
    MakePatterns();

// VPSHUFB picks within each 16-byte half: every index must stay below 16.
constexpr bool PatternsStayInWindow() {
  for (const UnpackPattern& p : kPatterns) {
    for (const uint8_t i : p.shuffle) {
      if (i >= 16) return false;
    }
  }
  return true;
}
static_assert(PatternsStayInWindow());

/// A pattern loaded into registers, plus the field mask.
struct LanePattern {
  __m256i shuffle;
  __m256i shift;
  __m256i mask;
  size_t hi_offset;
};

inline LanePattern LoadPattern(unsigned w, unsigned phase) {
  const UnpackPattern& p = kPatterns[w * 8 + phase];
  return {_mm256_load_si256(reinterpret_cast<const __m256i*>(p.shuffle)),
          _mm256_cvtepu8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p.shift))),
          _mm256_set1_epi32(static_cast<int>((1u << w) - 1)), p.hi_offset};
}

/// The eight fields of the step starting at `p`; reads [p, p + 16) and
/// [p + hi_offset, p + hi_offset + 16).
inline __m256i Fields8(const char* p, const LanePattern& lp) {
  const __m256i raw =
      _mm256_loadu2_m128i(reinterpret_cast<const __m128i*>(p + lp.hi_offset),
                          reinterpret_cast<const __m128i*>(p));
  return _mm256_and_si256(
      _mm256_srlv_epi32(_mm256_shuffle_epi8(raw, lp.shuffle), lp.shift),
      lp.mask);
}

/// Inclusive prefix sum of eight u32 lanes (wrapping, as the scalar sum).
inline __m256i PrefixSum8(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  // Each half now holds its own running sum; add the low half's total
  // (lane 3) to the high half.
  const __m256i low_total = _mm256_shuffle_epi32(x, 0xFF);
  return _mm256_add_epi32(x,
                          _mm256_permute2x128_si256(low_total, low_total, 0x08));
}

/// Entries [1, n) of diff-sequence block `b`'s offsets, offsets[0] set:
/// offsets[j] = offsets[j - 1] + 1 + gap(j). Returns the first entry left
/// for the portable tail.
uint32_t UnpackOffsets8(const ChunkView& view, uint32_t b, uint32_t n,
                        uint32_t* offsets) {
  const unsigned w = view.gap_bits();
  if (w == 0 || w > kMaxLaneBits) return 1;
  const char* stream = view.PackedGapsData();
  const size_t stream_bytes =
      static_cast<size_t>(view.PackedValuesData() - stream);
  const uint64_t bit = uint64_t{b} * (kPackedChunkBlock - 1) * w;
  const LanePattern lp = LoadPattern(w, static_cast<unsigned>(bit % 8));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i last_lane = _mm256_set1_epi32(7);
  __m256i carry = _mm256_set1_epi32(static_cast<int>(offsets[0]));
  size_t pos = static_cast<size_t>(bit / 8);
  uint32_t j = 1;
  // In-bounds rule: a step runs only while both of its windows end inside
  // the gap stream.
  for (; j < n && pos + lp.hi_offset + 16 <= stream_bytes; j += 8, pos += w) {
    const __m256i sums = _mm256_add_epi32(
        PrefixSum8(_mm256_add_epi32(Fields8(stream + pos, lp), one)), carry);
    if (n - j >= 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(offsets + j), sums);
    } else {
      alignas(32) uint32_t tail[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tail), sums);
      for (uint32_t k = 0; k < n - j; ++k) offsets[j + k] = tail[k];
    }
    carry = _mm256_permutevar8x32_epi32(sums, last_lane);
  }
  return j;
}

/// Entries [0, n) of block `b`'s values, biased. Returns the first entry
/// left for the portable tail. A block's values start on a byte (128 fields
/// fill whole bytes), so their phase is always 0.
uint32_t UnpackValues8(const ChunkView& view, uint32_t b, uint32_t n,
                       int64_t* values) {
  const unsigned w = view.val_bits();
  if (w == 0 || w > kMaxLaneBits) return 0;
  const char* stream = view.PackedValuesData();
  const size_t stream_bytes = static_cast<size_t>(view.PackedEnd() - stream);
  const uint64_t bit = uint64_t{b} * kPackedChunkBlock * w;
  const LanePattern lp = LoadPattern(w, static_cast<unsigned>(bit % 8));
  const __m256i bias = Splat(static_cast<uint64_t>(view.val_min()));
  size_t pos = static_cast<size_t>(bit / 8);
  uint32_t j = 0;
  for (; j < n && pos + lp.hi_offset + 16 <= stream_bytes; j += 8, pos += w) {
    const __m256i fields = Fields8(stream + pos, lp);
    const __m256i lo = _mm256_add_epi64(
        _mm256_cvtepu32_epi64(_mm256_castsi256_si128(fields)), bias);
    const __m256i hi = _mm256_add_epi64(
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(fields, 1)), bias);
    if (n - j >= 8) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + j), lo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + j + 4), hi);
    } else {
      alignas(32) int64_t tail[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tail), lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tail + 4), hi);
      for (uint32_t k = 0; k < n - j; ++k) values[j + k] = tail[k];
    }
  }
  return j;
}

}  // namespace

/// flat = outer[q] + inner[off - q * inner_cells] with q = off / inner_cells,
/// four offsets per step; the < 4-offset tail runs the portable template.
void DecodeBatchAvx2(const uint32_t* offsets, size_t n,
                     const KernelTables& tables, uint64_t* flat_idx) {
  const auto* outer = reinterpret_cast<const long long*>(tables.outer());
  const auto* inner = reinterpret_cast<const long long*>(tables.inner());
  const __m256i inner_cells = Splat(tables.inner_cells());
  const __m256i magic_hi = Splat(tables.magic_inner() >> 32);
  const __m256i magic_lo = Splat(tables.magic_inner() & 0xffffffffu);
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256i off = Load4(offsets + i);
    const __m256i q = MulHi4(off, magic_hi, magic_lo);
    const __m256i r = _mm256_sub_epi64(off, _mm256_mul_epu32(q, inner_cells));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(flat_idx + i),
        _mm256_add_epi64(_mm256_i64gather_epi64(outer, q, 8),
                         _mm256_i64gather_epi64(inner, r, 8)));
  }
  if (n4 < n) {
    DecodeBatchPortable(offsets + n4, n - n4, tables, flat_idx + n4);
  }
}

/// Eight fields per step; fields wider than kMaxLaneBits, width 0, and the
/// fields whose windows would cross their stream's end take the portable
/// tails.
uint32_t UnpackBlockAvx2(const ChunkView& view, uint32_t b, uint32_t* offsets,
                         int64_t* values) {
  const uint32_t start = b * kPackedChunkBlock;
  const uint32_t n = view.num_valid() - start < kPackedChunkBlock
                         ? view.num_valid() - start
                         : kPackedChunkBlock;
  offsets[0] = view.BlockFirstOffset(b);
  view.DecodeBlockOffsetsFrom(b, UnpackOffsets8(view, b, n, offsets), n,
                              offsets);
  view.DecodeBlockValuesFrom(b, UnpackValues8(view, b, n, values), n, values);
  return n;
}

}  // namespace paradise::kernels

#else  // !defined(__AVX2__)

namespace paradise::kernels {

// Non-x86 / non-AVX2 build: the symbols must exist for the dispatch table,
// but ActiveIsa() never selects them (PARADISE_KERNEL_HAVE_AVX2 is unset).
void DecodeBatchAvx2(const uint32_t* offsets, size_t n,
                     const KernelTables& tables, uint64_t* flat_idx) {
  DecodeBatchPortable(offsets, n, tables, flat_idx);
}

uint32_t UnpackBlockAvx2(const ChunkView& view, uint32_t b, uint32_t* offsets,
                         int64_t* values) {
  return view.DecodeBlock(b, offsets, values);
}

}  // namespace paradise::kernels

#endif  // defined(__AVX2__)
