// Batch-shaped consolidation kernels for the §4.1/§5.5.1 hot loop: decode a
// run of chunk offsets into flat result indexes (one magic-number reciprocal
// division per grouped dimension instead of a hardware div/mod per cell),
// gather the per-dimension flat-index contributions, and scatter the batch
// into the AggState array with consecutive equal groups pre-combined.
//
// Two implementations of the offset-decode step are compiled from the same
// template (decode_inl.h): a portable scalar one and an AVX2 one built in its
// own translation unit with -mavx2 (CMake sets the flag per file, so vector
// code never leaks into baseline objects). Which one runs is decided once at
// startup by CPUID — overridable with PARADISE_DISABLE_SIMD=1 or ForceIsa()
// — and both are bit-identical: the decode is pure integer arithmetic with
// exact floor division (see MagicReciprocal), and the scatter is shared, so
// a forced-scalar run and a dispatched run produce byte-equal GroupedResults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "array/chunk.h"
#include "array/delta_overlay.h"
#include "query/result.h"

namespace paradise {

class OlapArray;
struct GroupSpec;

namespace kernels {

enum class Isa : uint8_t { kScalar = 0, kAvx2 = 1 };

std::string_view IsaName(Isa isa);

/// The decode implementation queries will run: kAvx2 when the build carries
/// the AVX2 translation unit, the CPU reports the feature, and
/// PARADISE_DISABLE_SIMD is unset/0 in the environment; kScalar otherwise.
/// Detection happens once; ForceIsa() overrides it.
Isa ActiveIsa();

/// Test/bench hook: pins ActiveIsa() to `isa` (nullopt restores detection).
/// Forcing kAvx2 on a CPU without AVX2 is undefined — callers check
/// ActiveIsa() under detection first.
void ForceIsa(std::optional<Isa> isa);

/// ceil(2^64 / d) for d >= 2. For any n < 2^32,
///   floor(n / d) == (n * MagicReciprocal(d)) >> 64
/// exactly: writing m = floor(2^64/d) + 1 = (2^64 + e) / d with 0 < e <= d,
/// the error term n*e/d < 2^32 never reaches the bit above the shift. This
/// is the constant-divisor strength reduction compilers do, hoisted to run
/// time because the divisors (chunk strides/extents) are per-chunk data.
inline uint64_t MagicReciprocal(uint32_t d) { return ~uint64_t{0} / d + 1; }

/// floor(n / d) via the reciprocal; `magic` must be MagicReciprocal(d).
inline uint32_t MagicDivide(uint32_t n, uint64_t magic) {
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(n) * magic) >> 64);
}

/// Decode constants for one grouped dimension: the local coordinate of a
/// chunk offset is (offset / stride) % dim == offset/stride - (offset/span)*dim
/// with span = stride*dim, so one offset costs two reciprocal multiplies, one
/// multiply-subtract, and one contribution-table gather.
struct GroupDecode {
  uint32_t stride = 1;       // row-major local stride of the dimension
  uint32_t dim = 1;          // chunk extent of the dimension
  uint64_t magic_stride = 0; // MagicReciprocal(stride); unused when stride==1
  uint64_t magic_span = 0;   // MagicReciprocal(stride*dim)
  const uint64_t* contribution = nullptr;  // [dim] flat-index contributions
};

/// Per-chunk decode tables — the reusable form of the old BuildChunkTables
/// in consolidate.cc/parallel.cc. One instance lives per query (serial) or
/// per worker (parallel) and is re-Built per chunk without reallocating: the
/// contribution vectors keep their capacity across chunks.
class KernelTables {
 public:
  /// Rebuilds the tables for `chunk_no`. contribution[g][local] =
  /// i2i(level code at chunk base + local) * result stride (§5.5.1).
  void Build(const OlapArray& array, const GroupSpec& spec, uint64_t chunk_no);

  /// Test/bench hook: builds tables for a free-standing chunk geometry.
  /// `chunk_dims` are the chunk's per-dimension extents (row-major);
  /// `grouped` maps dimension index -> that dimension's contribution table
  /// (size == extent). No OlapArray needed.
  void BuildRaw(const std::vector<uint32_t>& chunk_dims,
                const std::vector<std::pair<size_t, std::vector<uint64_t>>>&
                    grouped);

  /// Sum of contributions of grouped dimensions whose chunk extent is 1
  /// (their local coordinate is always 0) — pre-added so the per-cell loop
  /// only touches dimensions that actually vary within the chunk.
  uint64_t flat_base() const { return flat_base_; }
  const std::vector<GroupDecode>& groups() const { return groups_; }

 private:
  uint64_t flat_base_ = 0;
  std::vector<GroupDecode> groups_;
  // Backing store for GroupDecode::contribution, reused across Build calls.
  std::vector<std::vector<uint64_t>> contribution_;
  std::vector<uint32_t> stride_scratch_;
};

/// Decodes `n` chunk offsets into flat result indexes. One symbol per ISA
/// translation unit; ActiveDecodeBatch() picks at run time.
using DecodeBatchFn = void (*)(const uint32_t* offsets, size_t n,
                               const KernelTables& tables, uint64_t* flat_idx);

void DecodeBatchScalar(const uint32_t* offsets, size_t n,
                       const KernelTables& tables, uint64_t* flat_idx);
void DecodeBatchAvx2(const uint32_t* offsets, size_t n,
                     const KernelTables& tables, uint64_t* flat_idx);

DecodeBatchFn ActiveDecodeBatch();

/// Aggregates a position range of `view` into `flat` in batches. For sparse
/// chunks the range is [begin, end) over entry indexes; for dense chunks it
/// is [begin, end) over chunk offsets (invalid cells are skipped via the
/// validity bitmap). Morsels are exactly such ranges, so the whole-chunk
/// path below and every morsel schedule aggregate identical cell sequences.
/// `superseding` is the chunk's ingest delta (may be null): a base cell at an
/// offset it holds is skipped, because the delta's value wins and
/// AggregateDelta adds it. Returns the number of base cells aggregated.
uint64_t AggregateRange(const ChunkView& view, uint32_t begin, uint32_t end,
                        const KernelTables& tables, query::AggState* flat,
                        const ChunkDelta* superseding = nullptr);

/// Aggregates every cell of a chunk's ingest delta into `flat`: the other
/// half of the merge AggregateRange starts. Call it once per chunk (also
/// when the base chunk is empty); AggregateRange over all positions with
/// `superseding` = `delta`, plus this, aggregates exactly the merged chunk.
/// Returns delta.cells.size().
uint64_t AggregateDelta(const ChunkDelta& delta, const KernelTables& tables,
                        query::AggState* flat);

/// Whole-chunk convenience: AggregateRange over every position.
uint64_t AggregateView(const ChunkView& view, const KernelTables& tables,
                       query::AggState* flat);

/// The position domain AggregateRange ranges over: num_valid() for sparse
/// chunks, capacity() for dense ones. Morsel splitting divides [0, this).
inline uint32_t PositionCount(const ChunkView& view) {
  return view.sparse() ? view.num_valid() : view.capacity();
}

}  // namespace kernels
}  // namespace paradise
