#include "core/cube.h"

#include <bit>
#include <optional>
#include <string>

#include "core/aggregate.h"
#include "core/consolidate.h"

namespace paradise {

Result<std::vector<Cuboid>> ArrayCube(const OlapArray& array,
                                      const CubeQuery& cube,
                                      PhaseTimer* timer, CubeStats* stats) {
  const size_t n = array.num_dims();
  if (cube.level_cols.size() != n) {
    return Status::InvalidArgument("level_cols arity mismatch");
  }
  if (n > 20) {
    return Status::InvalidArgument("cube over more than 20 dimensions");
  }
  // Cuboid `mask` groups dimension d at level_cols[d] when bit d is set;
  // GroupSpec::Make checks each level column.
  auto cuboid_query = [&](uint32_t mask) {
    query::ConsolidationQuery q;
    q.dims.resize(n);
    for (size_t d = 0; d < n; ++d) {
      if ((mask >> d) & 1) q.dims[d].group_by_col = cube.level_cols[d];
    }
    return q;
  };
  const uint32_t full_mask = static_cast<uint32_t>((1u << n) - 1);
  std::vector<GroupSpec> specs(full_mask + 1);
  for (uint32_t mask = 0; mask <= full_mask; ++mask) {
    PARADISE_ASSIGN_OR_RETURN(specs[mask],
                              GroupSpec::Make(array, cuboid_query(mask)));
  }

  // Cuboids in emit order: decreasing popcount, then ascending mask — the
  // lattice's own order, since every parent is finer than its children.
  // slot[mask] is the cuboid's index in `out`.
  std::vector<Cuboid> out;
  out.reserve(full_mask + 1);
  std::vector<size_t> slot(full_mask + 1);
  uint64_t aggregate_ops = 0;

  // Phase 1: the finest cuboid straight from the chunked array (the §4.1
  // consolidation, position-based).
  {
    ScopedPhase phase(timer, "base-cuboid");
    ArrayConsolidateStats base_stats;
    PARADISE_ASSIGN_OR_RETURN(query::GroupedResult base,
                              ArrayConsolidate(array, cuboid_query(full_mask),
                                               nullptr, &base_stats));
    if (stats != nullptr) stats->chunks_read = base_stats.chunks_read;
    aggregate_ops += base_stats.cells_scanned;
    slot[full_mask] = out.size();
    out.push_back(Cuboid{full_mask, std::move(base)});
  }

  // Phase 2: every coarser cuboid rolled up from its smallest parent (one
  // extra grouped dimension), in decreasing popcount order.
  {
    ScopedPhase phase(timer, "lattice");
    for (int pc = static_cast<int>(n) - 1; pc >= 0; --pc) {
      for (uint32_t mask = 0; mask <= full_mask; ++mask) {
        if (std::popcount(mask) != pc) continue;
        // Smallest parent: add back the absent dimension with the fewest
        // level members.
        uint32_t parent = 0;
        uint64_t best = UINT64_MAX;
        for (size_t d = 0; d < n; ++d) {
          if ((mask >> d) & 1) continue;
          const uint32_t candidate = mask | (1u << d);
          if (specs[candidate].num_groups < best) {
            best = specs[candidate].num_groups;
            parent = candidate;
          }
        }
        // The child keeps a subset of the parent's grouped dimensions at the
        // same level: each parent column lands in the child's column for the
        // same dimension, or is dropped.
        const GroupSpec& ps = specs[parent];
        const GroupSpec& cs = specs[mask];
        std::vector<RollUpColumn> columns(ps.grouped_dims.size());
        for (size_t pg = 0, cg = 0; pg < ps.grouped_dims.size(); ++pg) {
          if (cg < cs.grouped_dims.size() &&
              cs.grouped_dims[cg] == ps.grouped_dims[pg]) {
            columns[pg].target = cg++;
          }
        }
        const query::GroupedResult& parent_result = out[slot[parent]].result;
        std::optional<query::GroupedResult> child =
            RollUp(parent_result, columns, cs, cs.GroupColumnNames(array));
        if (!child.has_value()) {
          return Status::Internal("cuboid " + std::to_string(mask) +
                                  " does not roll up from cuboid " +
                                  std::to_string(parent));
        }
        aggregate_ops += parent_result.num_groups();
        slot[mask] = out.size();
        out.push_back(Cuboid{mask, std::move(*child)});
      }
    }
  }
  if (stats != nullptr) stats->aggregate_ops = aggregate_ops;
  return out;
}

}  // namespace paradise
