#include "core/consolidate_select.h"

#include <algorithm>
#include <optional>

#include "common/coding.h"
#include "core/kernels/consolidate_kernel.h"

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

namespace {

/// Galloping search for the end of a run: `below` must hold at `lo` and be
/// monotone (true, then false) over [lo, end). Returns the first index in
/// (lo, end] where it fails (end if none) — strides double from `lo` until
/// one lands past the run, then a bisection narrows the last stride, so the
/// cost grows with the log of the distance moved, not of the whole range.
template <typename Below>
uint32_t Gallop(uint32_t lo, uint32_t end, Below below) {
  uint32_t hi = end;
  for (uint64_t step = 1; lo + step < end; step *= 2) {
    if (!below(static_cast<uint32_t>(lo + step))) {
      hi = static_cast<uint32_t>(lo + step);
      break;
    }
    lo += static_cast<uint32_t>(step);
  }
  ++lo;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (below(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// A forward cursor over one base chunk's entries. The §4.2 candidates
/// arrive in increasing offset order, so the probe is a merge of two sorted
/// streams (the difference sequence read forward, as Szépkúti reads it):
/// - offset-compressed chunks gallop over the stored entries in place;
/// - packed chunks keep one block decoded, by the dispatched unpacker the
///   §4.1 scan uses, and step through it; a candidate past the block's last
///   offset jumps by the block anchors, so a block whose anchor range holds
///   no candidate is never decoded;
/// - dense chunks index the candidate directly.
class BaseCursor {
 public:
  /// `view` may be null (the base has no cells): nothing is ever found.
  explicit BaseCursor(const ChunkView* view)
      : view_(view),
        num_valid_(view == nullptr ? 0 : view->num_valid()),
        sparse_(view == nullptr || view->sparse()),
        unpack_(kernels::ActiveUnpackBlock()) {}

  /// The base value at `offset`, if valid. Offsets must not decrease from
  /// call to call, and `view` must be non-null.
  std::optional<int64_t> Seek(uint32_t offset) {
    switch (view_->encoding()) {
      case ChunkEncoding::kSparse:
        return SeekStored(offset);
      case ChunkEncoding::kDiffSeq:
        return SeekPacked(offset);
      case ChunkEncoding::kDense:
        break;
    }
    return view_->Get(offset);
  }

  /// True once every base entry lies below the last offset sought (sparse
  /// encodings and an empty base only): no later candidate can hit.
  bool exhausted() const { return sparse_ && pos_ >= num_valid_; }

 private:
  std::optional<int64_t> SeekStored(uint32_t offset) {
    const char* entries = view_->SparseEntriesData();
    const auto offset_at = [entries](uint32_t i) {
      return DecodeFixed32(entries + static_cast<size_t>(i) * 12);
    };
    if (pos_ < num_valid_ && offset_at(pos_) < offset) {
      pos_ = Gallop(pos_, num_valid_,
                    [&](uint32_t i) { return offset_at(i) < offset; });
    }
    if (pos_ < num_valid_ && offset_at(pos_) == offset) {
      return static_cast<int64_t>(DecodeFixed64(
          entries + static_cast<size_t>(pos_) * 12 + 4));
    }
    return std::nullopt;
  }

  std::optional<int64_t> SeekPacked(uint32_t offset) {
    if (n_ == 0 || offset > offsets_[n_ - 1]) {
      // Past the decoded block: every entry before block next_ is below
      // `offset`. If block next_ starts past it too, the candidate falls in
      // the gap before that anchor and nothing is decoded.
      const uint32_t blocks = view_->num_blocks();
      if (next_ >= blocks || view_->BlockFirstOffset(next_) > offset) {
        pos_ = next_ * kPackedChunkBlock;
        return std::nullopt;
      }
      // Decode the last block whose anchor is at or before `offset`.
      next_ = Gallop(next_, blocks, [&](uint32_t b) {
        return view_->BlockFirstOffset(b) <= offset;
      });
      n_ = unpack_(*view_, next_ - 1, offsets_, values_);
      k_ = 0;
    }
    while (k_ < n_ && offsets_[k_] < offset) ++k_;
    pos_ = (next_ - 1) * kPackedChunkBlock + k_;
    if (k_ < n_ && offsets_[k_] == offset) return values_[k_];
    return std::nullopt;
  }

  const ChunkView* view_;
  uint32_t num_valid_;
  bool sparse_;
  // The dispatched block unpacker, the one the §4.1 scan uses.
  kernels::UnpackBlockFn unpack_;
  // Index of the first entry at or past the last offset sought.
  uint32_t pos_ = 0;
  // Packed encodings: block next_ - 1 is decoded into offsets_/values_ with
  // n_ entries (n_ == 0: none is yet), and k_ indexes the first of them at
  // or past the last offset sought.
  uint32_t next_ = 0;
  uint32_t n_ = 0;
  uint32_t k_ = 0;
  uint32_t offsets_[kPackedChunkBlock];
  int64_t values_[kPackedChunkBlock];
};

/// The probe loop of ProbeSelectionRange. kMerge: the chunk has an ingest
/// delta, so each candidate is looked up in it before the base (and `view`
/// may be null). Without a delta the loop is the plain §4.2 probe: the
/// merge adds no per-candidate work to it.
template <bool kMerge>
void ProbeLoop(const ChunkLayout& layout, const GroupSpec& spec,
               const SelectionPlan& plan, const SelectionChunkWork& work,
               const ChunkView* view, const ChunkDelta* delta,
               std::vector<query::AggState>* flat,
               ArrayConsolidateStats* stats) {
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
  // chunk-offset order (row-major odometer over the list slices) and merge
  // them with the stored chunk through a forward cursor on the serialized
  // bytes. An ingest delta is probed first with its own forward cursor: its
  // upserts win over the base, as in GetCell.
  const auto& lists = plan.lists;
  BaseCursor cursor(view);
  const ChunkEntry* next = nullptr;
  const ChunkEntry* next_end = nullptr;
  if constexpr (kMerge) {
    next = delta->cells.data();
    next_end = next + delta->cells.size();
  }
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
    if constexpr (kMerge) {
      next = std::lower_bound(
          next, next_end, offset,
          [](const ChunkEntry& e, uint32_t o) { return e.offset < o; });
      if (next != next_end && next->offset == offset) hit = next->value;
    }
    if (!kMerge || (!hit.has_value() && view != nullptr)) {
      hit = cursor.Seek(offset);
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
    if (cursor.exhausted() && next == next_end) {
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
}

}  // namespace

Status ProbeSelectionRange(const ChunkLayout& layout, const GroupSpec& spec,
                           const SelectionPlan& plan,
                           const SelectionChunkWork& work,
                           const ChunkView* view, const ChunkDelta* delta,
                           std::vector<query::AggState>* flat,
                           ArrayConsolidateStats* stats) {
  if (delta != nullptr) {
    ProbeLoop<true>(layout, spec, plan, work, view, delta, flat, stats);
  } else if (view != nullptr) {
    ProbeLoop<false>(layout, spec, plan, work, view, nullptr, flat, stats);
  }
  return Status::OK();
}

}  // namespace select_detail

}  // namespace paradise
