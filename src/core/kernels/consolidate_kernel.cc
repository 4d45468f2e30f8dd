// Table building and the batch drivers shared by every ISA: extract a batch
// of (offset, value) pairs straight off the serialized chunk bytes, decode
// the offsets with the dispatched kernel, and scatter into AggState with
// consecutive equal flat indexes pre-combined. Cells arrive in offset order
// within a chunk, so when many cells of a batch fall into the same group
// (the common case — the innermost grouped dimension spans whole runs) the
// scatter touches the AggState once per run instead of once per cell.
//
// A chunk with ingest deltas is aggregated as a merge of two sorted offset
// lists (paper §3.3 keeps a chunk's offsets sorted; ChunkDelta keeps its
// upserts sorted): each batch of base cells drops the offsets the delta holds
// — found with a forward cursor — before decode, and AggregateDelta adds the
// delta cells once per chunk. The chunk is never rebuilt or re-encoded.
#include "core/kernels/consolidate_kernel.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/coding.h"
#include "core/aggregate.h"
#include "core/olap_array.h"

namespace paradise::kernels {

namespace {

// Cells per decode batch: large enough to amortize the dispatch-function
// call and keep the vector loop busy, small enough that the three scratch
// arrays (~5 KiB) stay in L1.
constexpr size_t kBatch = 256;

GroupDecode MakeGroupDecode(uint32_t stride, uint32_t dim,
                            const uint64_t* contribution) {
  GroupDecode g;
  g.stride = stride;
  g.dim = dim;
  g.magic_stride = stride >= 2 ? MagicReciprocal(stride) : 0;
  // span = stride * dim divides the chunk capacity, so it fits in 32 bits.
  g.magic_span = MagicReciprocal(
      static_cast<uint32_t>(static_cast<uint64_t>(stride) * dim));
  g.contribution = contribution;
  return g;
}

/// Merges a batch into `flat`, combining runs of equal flat indexes into one
/// AggState::Merge. Equivalent to calling flat[idx].Add(value) per cell:
/// int64 sum and count are associative, min/max commute.
void ScatterBatch(const uint64_t* flat_idx, const int64_t* values, size_t n,
                  query::AggState* flat) {
  size_t i = 0;
  while (i < n) {
    const uint64_t idx = flat_idx[i];
    query::AggState run;
    run.Add(values[i]);
    size_t j = i + 1;
    for (; j < n && flat_idx[j] == idx; ++j) run.Add(values[j]);
    flat[idx].Merge(run);
    i = j;
  }
}

/// Drops from a batch (offsets ascending) every base cell whose offset the
/// delta holds, advancing the forward cursor `*next` over [*next, end);
/// returns the number of cells kept, compacted to the front.
size_t DropSuperseded(uint32_t* offsets, int64_t* values, size_t n,
                      const ChunkEntry** next, const ChunkEntry* end) {
  const ChunkEntry* d = std::lower_bound(
      *next, end, offsets[0],
      [](const ChunkEntry& e, uint32_t o) { return e.offset < o; });
  *next = d;
  if (d == end || d->offset > offsets[n - 1]) return n;
  size_t kept = 0;
  for (size_t k = 0; k < n; ++k) {
    while (d != end && d->offset < offsets[k]) ++d;
    if (d != end && d->offset == offsets[k]) continue;
    offsets[kept] = offsets[k];
    values[kept] = values[k];
    ++kept;
  }
  *next = d;
  return kept;
}

/// One 64-cell window of the dense validity bitmap, starting at cell
/// `word_base` (a multiple of 64). Short-loads near the end of the bitmap.
uint64_t LoadBitmapWord(const char* bitmap, uint32_t word_base,
                        uint32_t capacity) {
  const size_t byte_off = word_base / 8;
  const size_t bitmap_bytes = (static_cast<size_t>(capacity) + 7) / 8;
  uint64_t word = 0;
  std::memcpy(&word, bitmap + byte_off,
              std::min<size_t>(8, bitmap_bytes - byte_off));
  return word;
}

}  // namespace

void KernelTables::Build(const OlapArray& array, const GroupSpec& spec,
                         uint64_t chunk_no) {
  const ChunkLayout& layout = array.layout();
  const CellCoords base = layout.ChunkBase(chunk_no);
  const CellCoords cdims = layout.ChunkDims(chunk_no);
  const size_t n = layout.num_dims();

  // Row-major strides of the chunk's local coordinate space.
  stride_scratch_.resize(n);
  uint32_t s = 1;
  for (size_t i = n; i > 0; --i) {
    stride_scratch_[i - 1] = s;
    s *= cdims[i - 1];
  }

  const size_t num_groups = spec.grouped_dims.size();
  if (contribution_.size() < num_groups) contribution_.resize(num_groups);
  groups_.clear();
  flat_base_ = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t d = spec.grouped_dims[g];
    const IndexToIndexArray& i2i = array.i2i(d);
    std::vector<uint64_t>& contrib = contribution_[g];
    contrib.resize(cdims[d]);
    for (uint32_t local = 0; local < cdims[d]; ++local) {
      contrib[local] =
          static_cast<uint64_t>(
              i2i.Map(spec.group_cols[g], base[d] + local)) *
          spec.strides[g];
    }
    if (cdims[d] == 1) {
      flat_base_ += contrib[0];
    } else {
      groups_.push_back(
          MakeGroupDecode(stride_scratch_[d], cdims[d], contrib.data()));
    }
  }
}

void KernelTables::BuildRaw(
    const std::vector<uint32_t>& chunk_dims,
    const std::vector<std::pair<size_t, std::vector<uint64_t>>>& grouped) {
  const size_t n = chunk_dims.size();
  stride_scratch_.resize(n);
  uint32_t s = 1;
  for (size_t i = n; i > 0; --i) {
    stride_scratch_[i - 1] = s;
    s *= chunk_dims[i - 1];
  }
  if (contribution_.size() < grouped.size()) contribution_.resize(grouped.size());
  groups_.clear();
  flat_base_ = 0;
  for (size_t g = 0; g < grouped.size(); ++g) {
    const size_t d = grouped[g].first;
    contribution_[g] = grouped[g].second;
    if (chunk_dims[d] == 1) {
      flat_base_ += contribution_[g][0];
    } else {
      groups_.push_back(MakeGroupDecode(stride_scratch_[d], chunk_dims[d],
                                        contribution_[g].data()));
    }
  }
}

uint64_t AggregateRange(const ChunkView& view, uint32_t begin, uint32_t end,
                        const KernelTables& tables, query::AggState* flat,
                        const ChunkDelta* superseding) {
  const DecodeBatchFn decode = ActiveDecodeBatch();
  uint32_t offsets[kBatch];
  int64_t values[kBatch];
  uint64_t flat_idx[kBatch];
  uint64_t cells = 0;
  // Forward cursor into the delta; null when no base cell can be superseded,
  // so overlay-free chunks pay one untaken branch per batch.
  const ChunkEntry* next = nullptr;
  const ChunkEntry* next_end = nullptr;
  if (superseding != nullptr && !superseding->cells.empty()) {
    next = superseding->cells.data();
    next_end = next + superseding->cells.size();
  }
  // Decodes and scatters one batch of base cells; returns the cells kept.
  auto flush = [&](uint32_t* off, int64_t* val, size_t n) -> size_t {
    if (next != nullptr && n != 0) {
      n = DropSuperseded(off, val, n, &next, next_end);
    }
    decode(off, n, tables, flat_idx);
    ScatterBatch(flat_idx, val, n, flat);
    return n;
  };

  if (view.encoding() == ChunkEncoding::kSparse) {
    const char* p = view.SparseEntriesData() + static_cast<size_t>(begin) * 12;
    for (uint32_t i = begin; i < end;) {
      const size_t n = std::min<size_t>(kBatch, end - i);
      for (size_t k = 0; k < n; ++k, p += 12) {
        offsets[k] = DecodeFixed32(p);
        values[k] = static_cast<int64_t>(DecodeFixed64(p + 4));
      }
      cells += flush(offsets, values, n);
      i += static_cast<uint32_t>(n);
    }
    return cells;
  }

  if (view.sparse()) {
    // Packed codecs (diff-sequence / bit-packed): unpack one block at a
    // time into the batch scratch (kPackedChunkBlock <= kBatch), then run
    // the same dispatched decode + scatter. A morsel boundary mid-block
    // decodes the whole block and aggregates only its [lo, hi) slice, so
    // every schedule still aggregates identical cell sequences.
    static_assert(kPackedChunkBlock <= kBatch);
    for (uint32_t i = begin; i < end;) {
      const uint32_t b = i / kPackedChunkBlock;
      const uint32_t block_start = b * kPackedChunkBlock;
      const uint32_t block_n = view.DecodeBlock(b, offsets, values);
      const uint32_t lo = i - block_start;
      const uint32_t hi =
          std::min<uint32_t>(block_n, end - block_start);
      cells += flush(offsets + lo, values + lo, hi - lo);
      i = block_start + hi;
    }
    return cells;
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
    uint64_t word = LoadBitmapWord(bitmap, word_base, view.capacity());
    word &= ~uint64_t{0} << (off - word_base);
    if (end - word_base < 64) {
      word &= (uint64_t{1} << (end - word_base)) - 1;
    }
    while (word != 0) {
      const uint32_t o = word_base + static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
      offsets[n] = o;
      values[n] =
          static_cast<int64_t>(DecodeFixed64(vals + static_cast<size_t>(o) * 8));
      if (++n == kBatch) {
        cells += flush(offsets, values, n);
        n = 0;
      }
    }
    off = static_cast<uint64_t>(word_base) + 64;
  }
  if (n != 0) cells += flush(offsets, values, n);
  return cells;
}

uint64_t AggregateDelta(const ChunkDelta& delta, const KernelTables& tables,
                        query::AggState* flat) {
  const DecodeBatchFn decode = ActiveDecodeBatch();
  uint32_t offsets[kBatch];
  int64_t values[kBatch];
  uint64_t flat_idx[kBatch];
  const size_t total = delta.cells.size();
  for (size_t i = 0; i < total;) {
    const size_t n = std::min(kBatch, total - i);
    for (size_t k = 0; k < n; ++k) {
      offsets[k] = delta.cells[i + k].offset;
      values[k] = delta.cells[i + k].value;
    }
    decode(offsets, n, tables, flat_idx);
    ScatterBatch(flat_idx, values, n, flat);
    i += n;
  }
  return total;
}

uint64_t AggregateView(const ChunkView& view, const KernelTables& tables,
                       query::AggState* flat) {
  return AggregateRange(view, 0, PositionCount(view), tables, flat);
}

}  // namespace paradise::kernels
