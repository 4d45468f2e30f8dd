// Table building and the batch drivers shared by every ISA: extract a batch
// of (offset, value) pairs straight off the serialized chunk bytes, decode
// the offsets with the dispatched kernel, and add each cell into its AggState
// (ScatterBatch). The scatter does not combine runs of equal groups: with
// shuffled hierarchies consecutive cells rarely share one, and the per-cell
// AggState::Add is branch-free.
//
// A chunk with ingest deltas is aggregated as a merge of two sorted offset
// lists (paper §3.3 keeps a chunk's offsets sorted; ChunkDelta keeps its
// upserts sorted): each batch of base cells drops the offsets the delta holds
// — found with a forward cursor — before decode, and AggregateDelta adds the
// delta cells once per chunk. The chunk is never rebuilt or re-encoded.
#include "core/kernels/consolidate_kernel.h"

#include <algorithm>
#include <cstring>

#include "core/aggregate.h"
#include "core/olap_array.h"

namespace paradise::kernels {

namespace {

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

}  // namespace

uint64_t detail::LoadBitmapWord(const char* bitmap, uint32_t word_base,
                                uint32_t capacity) {
  const size_t byte_off = word_base / 8;
  const size_t bitmap_bytes = (static_cast<size_t>(capacity) + 7) / 8;
  uint64_t word = 0;
  std::memcpy(&word, bitmap + byte_off,
              std::min<size_t>(8, bitmap_bytes - byte_off));
  return word;
}

void KernelTables::Build(const OlapArray& array, const GroupSpec& spec,
                         uint64_t chunk_no) {
  const ChunkLayout& layout = array.layout();
  const size_t n = layout.num_dims();
  chunk_base_.resize(n);
  chunk_dims_.resize(n);
  layout.ChunkBox(chunk_no, chunk_base_.data(), chunk_dims_.data());
  dim_table_.assign(n, nullptr);
  SetSource(&array, &spec);
  ChooseSplit(std::nullopt);

  const size_t num_groups = spec.grouped_dims.size();
  if (contribution_.size() < num_groups) {
    contribution_.resize(num_groups);
    contribution_key_.resize(num_groups, {0, 0});
  }
  bool outer_stale = false;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t d = spec.grouped_dims[g];
    std::vector<uint64_t>& contrib = contribution_[g];
    if (ContributionStale(g, chunk_base_[d], chunk_dims_[d])) {
      const IndexToIndexArray& i2i = array.i2i(d);
      contrib.resize(chunk_dims_[d]);
      for (uint32_t local = 0; local < chunk_dims_[d]; ++local) {
        contrib[local] =
            static_cast<uint64_t>(
                i2i.Map(spec.group_cols[g], chunk_base_[d] + local)) *
            spec.strides[g];
      }
      outer_stale |= d < split_;
    }
    dim_table_[d] = contrib.data();
  }
  Finish(outer_stale);
}

void KernelTables::BuildRaw(
    const std::vector<uint32_t>& chunk_dims,
    const std::vector<std::pair<size_t, std::vector<uint64_t>>>& grouped,
    std::optional<size_t> split, const std::vector<uint32_t>* chunk_base) {
  chunk_dims_ = chunk_dims;
  dim_table_.assign(chunk_dims.size(), nullptr);
  ChooseSplit(split);
  if (chunk_base == nullptr) {
    Forget();
  } else {
    SetSource(nullptr, nullptr);
  }
  if (contribution_.size() < grouped.size()) {
    contribution_.resize(grouped.size());
    contribution_key_.resize(grouped.size(), {0, 0});
  }
  bool outer_stale = chunk_base == nullptr;
  for (size_t g = 0; g < grouped.size(); ++g) {
    const size_t d = grouped[g].first;
    contribution_[g] = grouped[g].second;
    if (chunk_base != nullptr &&
        ContributionStale(g, (*chunk_base)[d], chunk_dims[d])) {
      outer_stale |= d < split_;
    }
    dim_table_[d] = contribution_[g].data();
  }
  Finish(outer_stale);
  if (chunk_base == nullptr) Forget();
}

void KernelTables::Forget() {
  keyed_ = false;
  std::fill(contribution_key_.begin(), contribution_key_.end(),
            std::pair<uint32_t, uint32_t>{0, 0});
  outer_valid_ = false;
}

void KernelTables::SetSource(const void* array, const void* spec) {
  if (keyed_ && source_[0] == array && source_[1] == spec) return;
  Forget();
  keyed_ = true;
  source_[0] = array;
  source_[1] = spec;
}

bool KernelTables::ContributionStale(size_t g, uint32_t base,
                                     uint32_t extent) {
  const std::pair<uint32_t, uint32_t> key{base, extent};
  if (contribution_key_[g] == key) return false;
  contribution_key_[g] = key;
  return true;
}

void KernelTables::ChooseSplit(std::optional<size_t> split) {
  // The split with the smallest outer + inner tables whose inner block holds
  // at least two cells (a divisor of 1 has no 64-bit reciprocal); split 0
  // when there is none, i.e. for a one-cell chunk. The chunk capacity is
  // < 2^32, so every block size fits in 32 bits. inner_cells_at_[k] is the
  // inner block's size at split k, filled back to front without a division.
  const size_t n = chunk_dims_.size();
  inner_cells_at_.resize(n + 1);
  inner_cells_at_[n] = 1;
  for (size_t k = n; k-- > 0;) {
    inner_cells_at_[k] = inner_cells_at_[k + 1] * chunk_dims_[k];
  }
  split_ = 0;
  uint64_t best_size = ~uint64_t{0};
  uint64_t outer_cells = 1;
  for (size_t k = 0; k < n; outer_cells *= chunk_dims_[k], ++k) {
    const uint64_t inner_cells = inner_cells_at_[k];
    if (inner_cells < 2) break;
    if (split.has_value() ? *split == k
                          : outer_cells + inner_cells < best_size) {
      split_ = k;
      best_size = outer_cells + inner_cells;
    }
  }
}

void KernelTables::Finish(bool outer_stale) {
  const uint32_t* dims = chunk_dims_.data();
  if (outer_stale || !outer_valid_ ||
      !std::equal(dims, dims + split_, outer_dims_.begin(),
                  outer_dims_.end())) {
    outer_cells_ = Expand(0, split_, &outer_);
    outer_dims_.assign(dims, dims + split_);
    outer_valid_ = true;
    ++outer_builds_;
  }
  const auto inner_cells =
      static_cast<uint32_t>(Expand(split_, chunk_dims_.size(), &inner_));
  if (inner_cells != inner_cells_) {
    inner_cells_ = inner_cells;
    magic_inner_ = MagicReciprocal(inner_cells);
  }
}

uint64_t KernelTables::flat_base() const {
  uint64_t base = 0;
  for (size_t d = 0; d < chunk_dims_.size(); ++d) {
    if (dim_table_[d] != nullptr && chunk_dims_[d] == 1) {
      base += dim_table_[d][0];
    }
  }
  return base;
}

size_t KernelTables::Expand(size_t first, size_t last,
                            std::vector<uint64_t>* table) const {
  uint64_t base = 0;
  size_t cells = 1;
  for (size_t d = first; d < last; ++d) {
    if (dim_table_[d] != nullptr && chunk_dims_[d] == 1) {
      base += dim_table_[d][0];
    }
    cells *= chunk_dims_[d];
  }
  // The table only grows, so a chunk does not pay for zero-filling it;
  // entries past `cells` are stale and never read.
  if (table->size() < cells) table->resize(cells);
  uint64_t* t = table->data();
  t[0] = base;
  size_t size = 1;
  for (size_t d = first; d < last; ++d) {
    const uint32_t extent = chunk_dims_[d];
    if (extent == 1) continue;  // local coordinate 0; folded into base
    const uint64_t* contrib = dim_table_[d];
    // Back to front, so each prefix entry is read before it is overwritten.
    for (size_t j = size; j-- > 0;) {
      const uint64_t prefix = t[j];
      uint64_t* row = t + j * extent;
      if (contrib == nullptr) {
        for (uint32_t l = 0; l < extent; ++l) row[l] = prefix;
      } else {
        for (uint32_t l = 0; l < extent; ++l) row[l] = prefix + contrib[l];
      }
    }
    size *= extent;
  }
  return cells;
}

uint64_t AggregateRange(const ChunkView& view, uint32_t begin, uint32_t end,
                        const KernelTables& tables, query::AggState* flat,
                        const ChunkDelta* superseding) {
  const DecodeBatchFn decode = ActiveDecodeBatch();
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
  UnpackRange(view, begin, end, [&](uint32_t* off, int64_t* val, size_t n) {
    if (next != nullptr && n != 0) {
      n = DropSuperseded(off, val, n, &next, next_end);
    }
    decode(off, n, tables, flat_idx);
    ScatterBatch(flat_idx, val, n, flat);
    cells += n;
  });
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
