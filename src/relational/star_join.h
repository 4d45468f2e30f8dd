// StarJoinConsolidation (paper §4.3): one in-memory hash table per joined
// dimension (key → group code, plus the selection verdict) and one
// aggregation hash table; a single scan of the fact file probes the
// dimension tables and aggregates value-based — the relational algorithm the
// OLAP Array consolidation is compared against.
#pragma once

#include "common/result.h"
#include "query/result.h"
#include "relational/group_by.h"

namespace paradise {

/// Runs the star-join consolidation. Selections are honored by filtering in
/// the per-dimension hash tables (the plain-relational selection baseline;
/// the bitmap algorithm in bitmap_select.h is the paper's optimized one).
Result<query::GroupedResult> StarJoinConsolidate(const RelationalInput& in);

}  // namespace paradise
