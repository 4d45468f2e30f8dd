// Bitmap-index consolidation with selection (paper §4.5): fetch the bitmaps
// of the selected values per dimension, AND them into a result bitmap, then
// fetch exactly the qualifying tuples through the fact file and aggregate.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "index/bitmap_index.h"
#include "query/result.h"
#include "relational/group_by.h"

namespace paradise {

/// Runs the bitmap-and-fact-file algorithm; group-by and aggregation match
/// StarJoinConsolidate's semantics exactly. `bitmap_indexes[dim][attr_col]`
/// is the join bitmap index on that attribute; the query has at least one
/// selection and every selected attribute has an index (CheckEngineAccepts).
/// `result_bits` (optional) receives the number of set bits in the final
/// ANDed bitmap (the paper quotes this, e.g. "only 80 non-zero bits at
/// selectivity 0.0001").
Result<query::GroupedResult> BitmapSelectConsolidate(
    const RelationalInput& in,
    const std::vector<std::vector<std::shared_ptr<BitmapJoinIndex>>>&
        bitmap_indexes,
    uint64_t* result_bits);

}  // namespace paradise
