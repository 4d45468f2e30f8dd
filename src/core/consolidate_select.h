// The building blocks of the OLAP Array consolidation-with-selection
// algorithm (paper §4.2), run by the executor in core/consolidate.h: probe
// the per-attribute B-trees for the selected values to get per-dimension
// index lists, merge them, then enumerate the cross-product lazily in chunk
// order — skipping chunks that cannot contain a selected cell — and probe
// each candidate by binary search over the chunk's sorted offsets. Phase 1
// and the overlap scan are cheap and stay on the caller's thread; the
// per-chunk probe works on disjoint chunk pieces and private result arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/aggregate.h"
#include "core/consolidate.h"
#include "core/olap_array.h"
#include "query/query.h"
#include "query/result.h"

namespace paradise {

// perfbench/src/serve_mixed.cc still calls the §4.2 entry point by these
// names, and the benchmark's sources change only with the benchmark; both
// forward to the one executor.
using ArraySelectStats = ArrayConsolidateStats;
inline Result<query::GroupedResult> ArrayConsolidateWithSelection(
    const OlapArray& array, const query::ConsolidationQuery& q,
    PhaseTimer* timer = nullptr, ArraySelectStats* stats = nullptr) {
  return ArrayConsolidate(array, q, timer, stats);
}

namespace select_detail {

/// Phase-1 state: per-dimension final index lists (sorted, deduplicated)
/// and per-group level maps. `empty` is true when some dimension's list
/// came out empty — the cross-product is empty and the result has no groups.
struct SelectionPlan {
  std::vector<std::vector<uint32_t>> lists;
  std::vector<const std::vector<int32_t>*> level_maps;
  bool empty = false;
};

/// Resolves the B-tree lookups and level maps (paper §4.2 phase 1).
Result<SelectionPlan> MakeSelectionPlan(const OlapArray& array,
                                        const query::ConsolidationQuery& q,
                                        const GroupSpec& spec);

/// One chunk the probe loop must read, with the half-open per-dimension
/// slice [slice_begin[d], slice_end[d]) into plan.lists[d] covering the
/// chunk's coordinate box. `overlap` is false only on the ablation path
/// that reads non-overlapping chunks anyway (nothing to probe).
struct SelectionChunkWork {
  uint64_t chunk_no = 0;
  std::vector<uint32_t> slice_begin;
  std::vector<uint32_t> slice_end;
  bool overlap = true;
};

/// Scans the chunk directory of `data` (the measure's array; no chunk I/O)
/// and returns the chunks the probe loop must read, in chunk-number order.
/// Skipped chunks are counted into `stats`.
std::vector<SelectionChunkWork> PlanSelectionChunks(
    const ChunkedArray& data, const SelectionPlan& plan,
    bool skip_non_overlapping_chunks, ArrayConsolidateStats* stats);

/// The odometer probe over an already-decoded chunk view (paper §4.2
/// optimizations 2+3): enumerates the cross-product elements inside the
/// work item's slices in increasing offset order and aggregates hits into
/// `flat`; `flat` and `stats` may be thread-private. `work.overlap` must be
/// true. Morsels narrow one dimension's slice (core/morsel.h) and call this
/// per piece: the probed candidate boxes are disjoint and their union is
/// the whole-chunk call's box, so any morsel schedule aggregates exactly the
/// same hits. (`candidates` counts can differ from the unsplit run's: the
/// sparse early-out stops each piece's odometer independently.)
Status ProbeSelectionRange(const OlapArray& array, const GroupSpec& spec,
                           const SelectionPlan& plan,
                           const SelectionChunkWork& work,
                           const ChunkView& view,
                           std::vector<query::AggState>* flat,
                           ArrayConsolidateStats* stats);

}  // namespace select_detail

}  // namespace paradise
