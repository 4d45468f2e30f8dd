#include "core/consolidate_select.h"

#include <algorithm>
#include <optional>

namespace paradise {

namespace select_detail {

namespace {

/// Sorted intersection of two sorted index lists.
std::vector<uint32_t> Intersect(const std::vector<uint32_t>& a,
                                const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Resolves one dimension's final index list: union over each selection's
/// values, intersection across selections; full range when unselected.
Status FinalIndexList(const OlapArray& array, size_t d,
                      const query::DimensionQuery& dq,
                      std::vector<uint32_t>* out) {
  const uint32_t size = array.layout().dims()[d];
  if (dq.selections.empty()) {
    out->resize(size);
    for (uint32_t i = 0; i < size; ++i) (*out)[i] = i;
    return Status::OK();
  }
  bool first = true;
  for (const query::Selection& s : dq.selections) {
    std::vector<uint32_t> list;
    for (const query::Literal& lit : s.values) {
      PARADISE_RETURN_IF_ERROR(array.AttrIndexList(
          d, s.attr_col, query::NormalizeLiteral(lit), &list));
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    if (first) {
      *out = std::move(list);
      first = false;
    } else {
      *out = Intersect(*out, list);
    }
  }
  return Status::OK();
}

}  // namespace

Result<SelectionPlan> MakeSelectionPlan(const OlapArray& array,
                                        const query::ConsolidationQuery& q,
                                        const GroupSpec& spec) {
  SelectionPlan plan;
  const size_t n = array.layout().num_dims();
  plan.lists.resize(n);
  for (size_t d = 0; d < n; ++d) {
    PARADISE_RETURN_IF_ERROR(
        FinalIndexList(array, d, q.dims[d], &plan.lists[d]));
    if (plan.lists[d].empty()) {
      // Empty cross-product: nothing qualifies.
      plan.empty = true;
      return plan;
    }
  }
  // Precompute group-code contributions per dimension index so each hit is a
  // few array lookups plus adds (position-based aggregation).
  plan.level_maps.resize(spec.grouped_dims.size());
  for (size_t g = 0; g < spec.grouped_dims.size(); ++g) {
    plan.level_maps[g] =
        &array.i2i(spec.grouped_dims[g]).MapColumn(spec.group_cols[g]);
  }
  return plan;
}

std::vector<SelectionChunkWork> PlanSelectionChunks(
    const ChunkedArray& data, const SelectionPlan& plan,
    bool skip_non_overlapping_chunks, ArrayConsolidateStats* stats) {
  const ChunkLayout& layout = data.layout();
  const size_t n = layout.num_dims();
  std::vector<SelectionChunkWork> out;
  for (uint64_t chunk_no = 0; chunk_no < layout.num_chunks(); ++chunk_no) {
    if (data.ChunkIsEmpty(chunk_no)) continue;
    const CellCoords base = layout.ChunkBase(chunk_no);
    const CellCoords cdims = layout.ChunkDims(chunk_no);

    // §4.2 optimization 1: compute each dimension list's overlap with this
    // chunk's coordinate box; an empty overlap means the chunk holds no
    // cross-product element and need not be read.
    SelectionChunkWork work;
    work.chunk_no = chunk_no;
    work.slice_begin.resize(n);
    work.slice_end.resize(n);
    for (size_t d = 0; d < n; ++d) {
      const auto& list = plan.lists[d];
      const auto lo = std::lower_bound(list.begin(), list.end(), base[d]);
      const auto hi = std::lower_bound(lo, list.end(), base[d] + cdims[d]);
      work.slice_begin[d] = static_cast<uint32_t>(lo - list.begin());
      work.slice_end[d] = static_cast<uint32_t>(hi - list.begin());
      if (lo == hi) work.overlap = false;
    }
    if (!work.overlap && skip_non_overlapping_chunks) {
      ++stats->chunks_skipped;
      continue;
    }
    out.push_back(std::move(work));
  }
  return out;
}

Status ProbeSelectionRange(const OlapArray& array, const GroupSpec& spec,
                           const SelectionPlan& plan,
                           const SelectionChunkWork& work,
                           const ChunkView& view,
                           std::vector<query::AggState>* flat,
                           ArrayConsolidateStats* stats) {
  const ChunkLayout& layout = array.layout();
  const size_t n = layout.num_dims();
  const CellCoords base = layout.ChunkBase(work.chunk_no);
  const CellCoords cdims = layout.ChunkDims(work.chunk_no);

  // Row-major local strides of this chunk.
  std::vector<uint32_t> local_strides(n);
  uint32_t s = 1;
  for (size_t i = n; i > 0; --i) {
    local_strides[i - 1] = s;
    s *= cdims[i - 1];
  }

  // §4.2 optimizations 2+3: enumerate cross-product elements in increasing
  // chunk-offset order (row-major odometer over the list slices) and probe
  // the sorted stored chunk with a forward-moving binary search directly on
  // the serialized bytes.
  const auto& lists = plan.lists;
  const bool sparse = view.sparse();
  uint32_t probe_pos = 0;
  std::vector<uint32_t> pos(n);
  for (size_t d = 0; d < n; ++d) pos[d] = work.slice_begin[d];
  bool done = false;
  while (!done) {
    uint32_t offset = 0;
    for (size_t d = 0; d < n; ++d) {
      offset += (lists[d][pos[d]] - base[d]) * local_strides[d];
    }
    ++stats->candidates;
    std::optional<int64_t> hit;
    if (sparse) {
      probe_pos = view.SparseLowerBound(offset, probe_pos);
      if (probe_pos < view.num_valid()) {
        const ChunkEntry e = view.SparseEntry(probe_pos);
        if (e.offset == offset) hit = e.value;
      }
    } else {
      hit = view.Get(offset);
    }
    if (hit.has_value()) {
      uint64_t flat_idx = 0;
      for (size_t g = 0; g < spec.grouped_dims.size(); ++g) {
        const size_t gd = spec.grouped_dims[g];
        flat_idx += static_cast<uint64_t>(
                        (*plan.level_maps[g])[lists[gd][pos[gd]]]) *
                    spec.strides[g];
      }
      (*flat)[flat_idx].Add(*hit);
      ++stats->hits;
    }
    if (sparse && probe_pos >= view.num_valid()) {
      break;  // no later offset can match
    }
    // Advance the odometer (last dimension fastest).
    size_t d = n - 1;
    for (;;) {
      if (++pos[d] < work.slice_end[d]) break;
      pos[d] = work.slice_begin[d];
      if (d == 0) {
        done = true;
        break;
      }
      --d;
    }
  }
  return Status::OK();
}

}  // namespace select_detail

}  // namespace paradise
