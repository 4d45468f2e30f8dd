// The remaining §3.5 ADT functions: slicing (fix one dimension to a member)
// and subset summation over a coordinate box. Both walk only the chunks that
// intersect the requested region, and, like the array executor, read one
// pinned version of the array for the whole call: each chunk is its base
// cells with that version's ingest delta merged in, so a concurrent commit
// or compaction never tears an answer.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/olap_array.h"
#include "query/result.h"

namespace paradise {

/// One cell of a slice result: full base coordinates plus the measure.
struct SliceCell {
  CellCoords coords;
  int64_t value;
};

/// Half-open index range per dimension.
using IndexBox = std::vector<std::pair<uint32_t, uint32_t>>;

/// All valid cells whose index along dimension `dim` equals the base index
/// of dimension key `key`, in chunk order.
Result<std::vector<SliceCell>> ArraySlice(const OlapArray& array, size_t dim,
                                          int32_t key);

/// Aggregate of all valid cells inside `box` (one [lo, hi) range per
/// dimension). Returns full AggState so any AggFunc can be finalized.
Result<query::AggState> ArraySumSubset(const OlapArray& array,
                                       const IndexBox& box);

}  // namespace paradise
