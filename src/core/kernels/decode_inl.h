// The portable offset-decode template, included (with internal linkage) by
// every ISA translation unit: kernel_scalar.cc uses it as the whole decode,
// kernel_avx2.cc for the < 4-lane tail. Keeping it `static` per TU means the
// copy inside the AVX2 unit may legally pick up AVX2 codegen without that
// leaking into the baseline objects — each TU owns its own instantiation.
//
// One fused pass over the batch: one reciprocal division and two table loads
// per cell. Must stay branch-free per cell in a way that cannot depend on
// the ISA: only integer multiplies, shifts, adds and table gathers, so the
// scalar and vector paths agree bit-for-bit on every input.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/kernels/consolidate_kernel.h"

namespace paradise::kernels {
namespace {

inline void DecodeBatchPortable(const uint32_t* offsets, size_t n,
                                const KernelTables& tables,
                                uint64_t* flat_idx) {
  // offset = q * inner_cells + r, flat = outer[q] + inner[r].
  const uint64_t* const outer = tables.outer();
  const uint64_t* const inner = tables.inner();
  const uint32_t inner_cells = tables.inner_cells();
  const uint64_t magic = tables.magic_inner();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t off = offsets[i];
    const uint32_t q = MagicDivide(off, magic);
    flat_idx[i] = outer[q] + inner[off - q * inner_cells];
  }
}

}  // namespace
}  // namespace paradise::kernels
