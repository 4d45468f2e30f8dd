// Batch-shaped consolidation kernels for the §4.1/§5.5.1 hot loop: unpack a
// chunk's cells, decode their offsets into flat result indexes and add each
// cell into the AggState array. The paper's "map each valid cell through the
// IndexToIndex arrays" becomes, per chunk, two contribution tables: the
// chunk's row-major dimensions split into an outer and an inner block, each
// table holding the summed flat-index contribution of its block's grouped
// dimensions, so a cell costs one magic-number reciprocal division and two
// loads.
//
// Two ISA-specific steps sit behind one dispatch: the offset decode, compiled
// from one template (decode_inl.h), and the packed-block unpack, whose
// portable form is ChunkView::DecodeBlock. The AVX2 versions live in their
// own translation unit built with -mavx2 (CMake sets the flag per file, so
// vector code never leaks into baseline objects). Which ISA runs is decided
// once at startup by CPUID — overridable with PARADISE_DISABLE_SIMD=1 or
// ForceIsa() — and both are bit-identical: the unpack is exact bit
// extraction with wrapping integer sums, the decode pure integer arithmetic
// with exact floor division (see MagicReciprocal), and the scatter is
// shared, so a forced-scalar run and a dispatched run produce byte-equal
// GroupedResults.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "array/chunk.h"
#include "array/delta_overlay.h"
#include "common/coding.h"
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

/// Per-chunk decode tables. One instance lives per query (serial) or per
/// worker (parallel) and is re-Built per chunk without reallocating: every
/// table keeps its capacity across chunks.
///
/// The chunk's row-major dimensions split at split() into an outer block
/// [0, split) and an inner block [split, n), at the point that minimises the
/// two tables' total size (400 + 200 entries for a 20x20x20x10 chunk). An
/// offset is q * inner_cells + r, and its flat index is outer[q] + inner[r]:
/// each table entry is the summed contribution of its block's grouped
/// dimensions, each block's extent-1 dimensions folded into its own table.
///
/// Build keeps what the previous Build for the same array and spec computed
/// while its inputs match: a grouped dimension's contribution is keyed on
/// the chunk's base coordinate and extent in that dimension, and the outer
/// table on the split, the outer extents and its dimensions' contributions.
/// Consecutive chunks in row-major order differ in the last chunk
/// coordinate, inside the inner block, so a scan rebuilds the outer table
/// once per outer block of chunks rather than once per chunk.
class KernelTables {
 public:
  /// Rebuilds the tables for `chunk_no`. A grouped dimension's contribution
  /// at local coordinate l is i2i(level code at chunk base + l) * result
  /// stride (§5.5.1).
  void Build(const OlapArray& array, const GroupSpec& spec, uint64_t chunk_no);

  /// Test/bench hook: builds tables for a free-standing chunk geometry.
  /// `chunk_dims` are the chunk's per-dimension extents (row-major);
  /// `grouped` maps dimension index -> that dimension's contribution table
  /// (size == extent). No OlapArray needed. `split`, when set, forces the
  /// inner block to start at that dimension (< chunk_dims.size(), and the
  /// inner block must hold >= 2 cells). `chunk_base`, when set, gives the
  /// chunk's base coordinates and keys the outer table as Build does across
  /// BuildRaw calls with a base: the caller then promises that each
  /// contribution table is a function of base + local coordinate.
  void BuildRaw(const std::vector<uint32_t>& chunk_dims,
                const std::vector<std::pair<size_t, std::vector<uint64_t>>>&
                    grouped,
                std::optional<size_t> split = std::nullopt,
                const std::vector<uint32_t>* chunk_base = nullptr);

  /// Sum of contributions of grouped dimensions whose chunk extent is 1
  /// (their local coordinate is always 0).
  uint64_t flat_base() const;

  /// The first inner-block dimension, the inner block's cell count (the
  /// inner table's size), its MagicReciprocal, and the two tables. A
  /// one-cell chunk has inner_cells 1, whose reciprocal wraps to 0: the
  /// decode then divides its only offset, 0, correctly.
  size_t split() const { return split_; }
  uint32_t inner_cells() const { return inner_cells_; }
  uint64_t magic_inner() const { return magic_inner_; }
  const uint64_t* outer() const { return outer_.data(); }
  const uint64_t* inner() const { return inner_.data(); }
  size_t outer_size() const { return outer_cells_; }

  /// How many builds rebuilt the outer table rather than keeping it.
  uint64_t outer_builds() const { return outer_builds_; }

 private:
  // Drops every kept contribution and the outer table.
  void Forget();
  // Forget()s unless the kept state came from `array` and `spec` (both
  // null for BuildRaw with a base).
  void SetSource(const void* array, const void* spec);
  // Sets split_ from chunk_dims_; `split` as in BuildRaw.
  void ChooseSplit(std::optional<size_t> split);
  // True, and records the new key, unless grouped dimension g's kept
  // contribution was computed at this chunk base coordinate and extent.
  bool ContributionStale(size_t g, uint32_t base, uint32_t extent);
  // Fills `table` with every combination of dimensions [first, last):
  // the block's extent-1 contributions plus the summed contributions,
  // row-major; returns the number of entries.
  size_t Expand(size_t first, size_t last,
                std::vector<uint64_t>* table) const;
  // Rebuilds the inner table from chunk_dims_ and dim_table_, and the outer
  // one too when `outer_stale` (an outer contribution changed) or the split
  // or an outer extent did.
  void Finish(bool outer_stale);

  size_t split_ = 0;
  size_t outer_cells_ = 1;
  uint32_t inner_cells_ = 1;
  uint64_t magic_inner_ = 0;
  uint64_t outer_builds_ = 0;
  // The tables; each only grows, its first outer_cells_ / inner_cells_
  // entries are the current chunk's.
  std::vector<uint64_t> outer_;
  std::vector<uint64_t> inner_;
  // ChooseSplit's scratch: the inner block's size at each split.
  std::vector<uint64_t> inner_cells_at_;
  // Per-chunk inputs, reused across Build calls: the chunk's base
  // coordinates (Build only) and extents, each dimension's contribution
  // table (null when ungrouped), and the backing store of the grouped
  // dimensions' tables.
  std::vector<uint32_t> chunk_base_;
  std::vector<uint32_t> chunk_dims_;
  std::vector<const uint64_t*> dim_table_;
  std::vector<std::vector<uint64_t>> contribution_;
  // What the kept state was computed for: its source (keyed_ false: none),
  // each grouped dimension's (base coordinate, extent) (extent 0: none),
  // and the outer extents of the outer table (outer_valid_ false: none).
  bool keyed_ = false;
  const void* source_[2] = {nullptr, nullptr};
  std::vector<std::pair<uint32_t, uint32_t>> contribution_key_;
  bool outer_valid_ = false;
  std::vector<uint32_t> outer_dims_;
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

/// Unpacks block `b` of a diff-sequence `view` into `offsets`/`values`
/// (each sized >= kPackedChunkBlock) and returns its entry count, exactly
/// as ChunkView::DecodeBlock does. One symbol per ISA; ActiveUnpackBlock()
/// picks at run time. The scalar one is DecodeBlock; the AVX2 one unpacks
/// eight fields per step.
using UnpackBlockFn = uint32_t (*)(const ChunkView& view, uint32_t b,
                                   uint32_t* offsets, int64_t* values);

uint32_t UnpackBlockScalar(const ChunkView& view, uint32_t b,
                           uint32_t* offsets, int64_t* values);
uint32_t UnpackBlockAvx2(const ChunkView& view, uint32_t b, uint32_t* offsets,
                         int64_t* values);

UnpackBlockFn ActiveUnpackBlock();

/// Cells per kernel batch: large enough to amortize the dispatch-function
/// call and keep the vector loop busy, small enough that the three scratch
/// arrays (~5 KiB) stay in L1.
inline constexpr size_t kBatch = 256;

namespace detail {
/// One 64-cell window of the dense validity bitmap, starting at cell
/// `word_base` (a multiple of 64). Short-loads near the end of the bitmap.
uint64_t LoadBitmapWord(const char* bitmap, uint32_t word_base,
                        uint32_t capacity);
}  // namespace detail

/// The kernel's unpack step: extracts the cells at positions [begin, end)
/// of `view` (positions as AggregateRange ranges them) straight off the
/// serialized bytes, in offset order, and hands them to
/// `fn(uint32_t* offsets, int64_t* values, size_t n)` in batches of at most
/// kBatch cells. The arrays are scratch `fn` may rewrite.
template <typename Fn>
void UnpackRange(const ChunkView& view, uint32_t begin, uint32_t end,
                 Fn&& fn) {
  uint32_t offsets[kBatch];
  int64_t values[kBatch];
  if (view.encoding() == ChunkEncoding::kSparse) {
    const char* p = view.SparseEntriesData() + static_cast<size_t>(begin) * 12;
    for (uint32_t i = begin; i < end;) {
      const size_t n = std::min<size_t>(kBatch, end - i);
      for (size_t k = 0; k < n; ++k, p += 12) {
        offsets[k] = DecodeFixed32(p);
        values[k] = static_cast<int64_t>(DecodeFixed64(p + 4));
      }
      fn(offsets, values, n);
      i += static_cast<uint32_t>(n);
    }
    return;
  }

  if (view.sparse()) {
    // Diff-sequence: unpack one block at a time (kPackedChunkBlock <=
    // kBatch) with the dispatched unpacker. A range boundary mid-block
    // decodes the whole block and hands on only its [lo, hi) slice, so every
    // morsel schedule sees identical cell sequences.
    static_assert(kPackedChunkBlock <= kBatch);
    const UnpackBlockFn unpack = ActiveUnpackBlock();
    for (uint32_t i = begin; i < end;) {
      const uint32_t b = i / kPackedChunkBlock;
      const uint32_t block_start = b * kPackedChunkBlock;
      const uint32_t block_n = unpack(view, b, offsets, values);
      const uint32_t lo = i - block_start;
      const uint32_t hi = std::min<uint32_t>(block_n, end - block_start);
      fn(offsets + lo, values + lo, hi - lo);
      i = block_start + hi;
    }
    return;
  }

  // Dense: scan the validity bitmap one 64-cell word at a time and pack the
  // set cells' offsets/values into the batch.
  const char* bitmap = view.DenseBitmapData();
  const char* vals = view.DenseValuesData();
  size_t n = 0;
  // 64-bit cursor: word_base + 64 may not fit in 32 bits for the last word
  // of a capacity near 2^32.
  for (uint64_t off = begin; off < end;) {
    const uint32_t word_base = static_cast<uint32_t>(off) & ~uint32_t{63};
    uint64_t word =
        detail::LoadBitmapWord(bitmap, word_base, view.capacity());
    word &= ~uint64_t{0} << (off - word_base);
    if (end - word_base < 64) {
      word &= (uint64_t{1} << (end - word_base)) - 1;
    }
    while (word != 0) {
      const uint32_t o =
          word_base + static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
      offsets[n] = o;
      values[n] = static_cast<int64_t>(
          DecodeFixed64(vals + static_cast<size_t>(o) * 8));
      if (++n == kBatch) {
        fn(offsets, values, n);
        n = 0;
      }
    }
    off = static_cast<uint64_t>(word_base) + 64;
  }
  if (n != 0) fn(offsets, values, n);
}

/// Adds each cell of a decoded batch into `flat`: flat[flat_idx[i]] gets
/// values[i], in batch order. Shared by every ISA.
inline void ScatterBatch(const uint64_t* flat_idx, const int64_t* values,
                         size_t n, query::AggState* flat) {
  for (size_t i = 0; i < n; ++i) flat[flat_idx[i]].Add(values[i]);
}

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
