// AVX2 decode kernel. This is the only translation unit compiled with
// -mavx2 (set per-file in src/CMakeLists.txt); kernel_dispatch.cc selects it
// at run time only when the build defined PARADISE_KERNEL_HAVE_AVX2 *and*
// CPUID reports the feature, so no AVX2 instruction can execute elsewhere.
//
// Each u32 offset is zero-extended into a u64 lane, and the 64-bit
// high-multiply against a magic reciprocal decomposes as
//   mulhi64(n, m) = (n*hi(m) + ((n*lo(m)) >> 32)) >> 32     (n < 2^32)
// — two VPMULUDQ, two shifts, one add per division. The decode is one fused
// pass: one such division per 4 offsets, then two VPGATHERQQ (outer[q],
// inner[r]) and an add. The arithmetic is the exact expression decode_inl.h
// evaluates, so results are bit-identical to the scalar kernel.
#include "core/kernels/consolidate_kernel.h"
#include "core/kernels/decode_inl.h"

#if defined(__AVX2__)
#include <immintrin.h>

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

}  // namespace paradise::kernels

#else  // !defined(__AVX2__)

namespace paradise::kernels {

// Non-x86 / non-AVX2 build: the symbol must exist for the dispatch table,
// but ActiveIsa() never selects it (PARADISE_KERNEL_HAVE_AVX2 is unset).
void DecodeBatchAvx2(const uint32_t* offsets, size_t n,
                     const KernelTables& tables, uint64_t* flat_idx) {
  DecodeBatchPortable(offsets, n, tables, flat_idx);
}

}  // namespace paradise::kernels

#endif  // defined(__AVX2__)
