// Left-deep pipelined hash-join baseline — the conventional plan the paper's
// §4.3 argues is a poor fit for star joins (each stage materializes the
// growing join result before the next dimension joins and the final
// aggregation runs). Kept as an ablation so the benches can show the gap the
// fused StarJoinConsolidation closes.
#pragma once

#include <cstdint>

#include "common/result.h"
#include "query/result.h"
#include "relational/group_by.h"

namespace paradise {

/// Joins the fact table with each joined dimension one stage at a time,
/// materializing the intermediate result between stages, then hash-
/// aggregates. Semantics match StarJoinConsolidate. `intermediate_rows`
/// (optional) receives the total rows materialized across all stages — the
/// cost driver this baseline demonstrates.
Result<query::GroupedResult> LeftDeepJoinConsolidate(
    const RelationalInput& in, uint64_t* intermediate_rows);

}  // namespace paradise
