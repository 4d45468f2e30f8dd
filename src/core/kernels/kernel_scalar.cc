// Portable decode and unpack kernels — the baseline every other ISA must
// match bit-for-bit. Compiled with the project's default flags only.
#include "core/kernels/consolidate_kernel.h"
#include "core/kernels/decode_inl.h"

namespace paradise::kernels {

void DecodeBatchScalar(const uint32_t* offsets, size_t n,
                       const KernelTables& tables, uint64_t* flat_idx) {
  DecodeBatchPortable(offsets, n, tables, flat_idx);
}

uint32_t UnpackBlockScalar(const ChunkView& view, uint32_t b,
                           uint32_t* offsets, int64_t* values) {
  return view.DecodeBlock(b, offsets, values);
}

}  // namespace paradise::kernels
