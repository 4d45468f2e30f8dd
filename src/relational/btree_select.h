// B-tree join-index selection — the "standard B-tree indexing" baseline of
// paper §4.4, which their tests found dominated by bitmap indexing across
// the board. One B-tree per selectable dimension attribute maps attribute
// values to fact tuple numbers; selection retrieves the tuple-id lists for
// the selected values, intersects them across attributes and dimensions,
// and fetches the survivors through the fact file.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "query/result.h"
#include "relational/group_by.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace paradise {

/// Runs the B-tree join-index plan; semantics match the other consolidation
/// operators. `join_index_roots[dim][col]` is the root page of the value →
/// tuple-number B-tree in `pool`; the query has at least one selection and
/// every selected attribute has a tree (CheckEngineAccepts).
/// `result_tuples` (optional) receives the qualifying tuples after all
/// intersections.
Result<query::GroupedResult> BTreeSelectConsolidate(
    const RelationalInput& in,
    const std::vector<std::vector<PageId>>& join_index_roots,
    BufferPool* pool, uint64_t* result_tuples);

}  // namespace paradise
