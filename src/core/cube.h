// The CUBE operator over the OLAP Array ADT: computes all 2^n group-bys
// ("cuboids") of one level per dimension in a single pass — the
// simultaneous multi-dimensional aggregation of the authors' companion
// paper [ZDN97], which §1 cites as the previous work this ADT generalizes.
//
// Algorithm: the finest cuboid (all dimensions grouped) is ArrayConsolidate's
// result for that grouping; every coarser cuboid is then aggregated not from
// the base data but from its *smallest parent* in the cuboid lattice, the
// key cost-saving idea of [ZDN97]: RollUp (core/aggregate.h) merges each of
// the parent's rows at its position in the child's flat result array — the
// same positional roll-up the result cache derives coarser answers with.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/olap_array.h"
#include "query/query.h"
#include "query/result.h"

namespace paradise {

struct CubeQuery {
  /// Hierarchy level (attribute column, >= 1) per dimension.
  std::vector<size_t> level_cols;
  query::AggFunc agg = query::AggFunc::kSum;
};

/// One computed cuboid: the dimensions it groups (bitmask over dimensions)
/// and its result rows.
struct Cuboid {
  uint32_t mask = 0;  // bit d set => dimension d grouped at level_cols[d]
  query::GroupedResult result;
};

struct CubeStats {
  uint64_t chunks_read = 0;
  /// Aggregation operations performed; the lattice scheme makes this far
  /// smaller than 2^n * valid_cells (the naive simultaneous cost).
  uint64_t aggregate_ops = 0;
};

/// Computes all 2^n cuboids (including the all-collapsed grand total,
/// mask 0). Cuboids are returned in decreasing mask-popcount order; each
/// cuboid's result equals ArrayConsolidate of the corresponding query.
Result<std::vector<Cuboid>> ArrayCube(const OlapArray& array,
                                      const CubeQuery& cube,
                                      PhaseTimer* timer = nullptr,
                                      CubeStats* stats = nullptr);

}  // namespace paradise
