#include "core/slice.h"

#include <optional>

namespace paradise {

namespace {

Status ValidateBox(const ChunkLayout& layout, const IndexBox& box) {
  if (box.size() != layout.num_dims()) {
    return Status::InvalidArgument("box arity mismatch");
  }
  for (size_t d = 0; d < box.size(); ++d) {
    if (box[d].first > box[d].second || box[d].second > layout.dims()[d]) {
      return Status::InvalidArgument("bad range on dimension " +
                                     std::to_string(d));
    }
  }
  return Status::OK();
}

/// Visits every valid cell inside `box`, skipping chunks outside it. The
/// walk reads one pinned version: each chunk is its base bytes with the
/// version's delta merged in. `fn(const CellCoords&, int64_t)` returns
/// Status.
template <typename Fn>
Status VisitBox(const OlapArray& array, const IndexBox& box, Fn&& fn) {
  const ChunkLayout& layout = array.layout();
  PARADISE_RETURN_IF_ERROR(ValidateBox(layout, box));
  const ChunkedArray data = array.array();  // pins one version
  const size_t n = layout.num_dims();
  CellCoords coords(n);
  for (uint64_t chunk_no = 0; chunk_no < layout.num_chunks(); ++chunk_no) {
    if (data.ChunkIsEmpty(chunk_no)) continue;
    const CellCoords base = layout.ChunkBase(chunk_no);
    const CellCoords cdims = layout.ChunkDims(chunk_no);
    bool overlaps = true;
    for (size_t d = 0; d < n; ++d) {
      if (base[d] >= box[d].second || base[d] + cdims[d] <= box[d].first) {
        overlaps = false;
        break;
      }
    }
    if (!overlaps) continue;
    PARADISE_ASSIGN_OR_RETURN(ChunkedArray::ChunkParts parts,
                              data.ReadChunkParts(chunk_no));
    std::optional<ChunkView> view;
    if (!parts.base.empty()) {
      PARADISE_ASSIGN_OR_RETURN(view, ChunkView::Make(parts.base));
    }
    Status st = Status::OK();
    ForEachMergedCell(
        view ? &*view : nullptr, parts.delta,
        [&](uint32_t offset, int64_t value) {
          if (!st.ok()) return;
          // Decode the offset into coordinates and test the box.
          bool inside = true;
          for (size_t i = n; i > 0; --i) {
            const size_t d = i - 1;
            coords[d] = base[d] + offset % cdims[d];
            offset /= cdims[d];
            if (coords[d] < box[d].first || coords[d] >= box[d].second) {
              inside = false;
            }
          }
          if (inside) st = fn(coords, value);
        });
    PARADISE_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<SliceCell>> ArraySlice(const OlapArray& array, size_t dim,
                                          int32_t key) {
  if (dim >= array.num_dims()) {
    return Status::InvalidArgument("bad dimension " + std::to_string(dim));
  }
  PARADISE_ASSIGN_OR_RETURN(std::optional<uint32_t> idx,
                            array.KeyToIndex(dim, key));
  if (!idx.has_value()) {
    return Status::NotFound("key " + std::to_string(key) +
                            " not in dimension " + array.dim_name(dim));
  }
  IndexBox box;
  const ChunkLayout& layout = array.layout();
  for (size_t d = 0; d < layout.num_dims(); ++d) {
    if (d == dim) {
      box.emplace_back(*idx, *idx + 1);
    } else {
      box.emplace_back(0, layout.dims()[d]);
    }
  }
  std::vector<SliceCell> out;
  PARADISE_RETURN_IF_ERROR(
      VisitBox(array, box, [&](const CellCoords& coords, int64_t value) {
        out.push_back(SliceCell{coords, value});
        return Status::OK();
      }));
  return out;
}

Result<query::AggState> ArraySumSubset(const OlapArray& array,
                                       const IndexBox& box) {
  query::AggState agg;
  PARADISE_RETURN_IF_ERROR(
      VisitBox(array, box, [&](const CellCoords&, int64_t value) {
        agg.Add(value);
        return Status::OK();
      }));
  return agg;
}

}  // namespace paradise
