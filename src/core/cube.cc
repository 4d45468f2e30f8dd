#include "core/cube.h"

#include <algorithm>
#include <bit>

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
  std::vector<std::vector<query::AggState>> flats(full_mask + 1);

  uint64_t aggregate_ops = 0;

  // Phase 1: the finest cuboid straight from the chunked array (the §4.1
  // consolidation, position-based).
  {
    ScopedPhase phase(timer, "base-cuboid");
    const query::ConsolidationQuery q = cuboid_query(full_mask);
    flats[full_mask].assign(specs[full_mask].num_groups, query::AggState{});
    ArrayConsolidateStats base_stats;
    // Reuse the consolidation executor's chunk pass by running it and
    // copying its grouped result into the flat array.
    PARADISE_ASSIGN_OR_RETURN(query::GroupedResult base,
                              ArrayConsolidate(array, q, nullptr,
                                               &base_stats));
    if (stats != nullptr) stats->chunks_read = base_stats.chunks_read;
    aggregate_ops += base_stats.cells_scanned;
    for (const query::ResultRow& row : base.rows()) {
      uint64_t flat = 0;
      for (size_t g = 0; g < row.group.size(); ++g) {
        flat += static_cast<uint64_t>(row.group[g]) *
                specs[full_mask].strides[g];
      }
      flats[full_mask][flat] = row.agg;
    }
  }

  // Phase 2: every coarser cuboid from its smallest parent (one extra
  // grouped dimension), in decreasing popcount order.
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
        const GroupSpec& ps = specs[parent];
        const GroupSpec& cs = specs[mask];
        // Child strides aligned to the parent's grouped-dim list: the child
        // keeps a subset of the parent's dims.
        std::vector<uint64_t> child_stride_in_parent(ps.grouped_dims.size(),
                                                     0);
        for (size_t pg = 0, cg = 0; pg < ps.grouped_dims.size(); ++pg) {
          if (cg < cs.grouped_dims.size() &&
              cs.grouped_dims[cg] == ps.grouped_dims[pg]) {
            child_stride_in_parent[pg] = cs.strides[cg];
            ++cg;
          }
        }
        std::vector<query::AggState>& child = flats[mask];
        child.assign(cs.num_groups, query::AggState{});
        const std::vector<query::AggState>& parent_flat = flats[parent];
        for (uint64_t p = 0; p < parent_flat.size(); ++p) {
          if (parent_flat[p].count == 0) continue;
          uint64_t c = 0;
          uint64_t rest = p;
          for (size_t pg = 0; pg < ps.grouped_dims.size(); ++pg) {
            const uint64_t coord = rest / ps.strides[pg];
            rest %= ps.strides[pg];
            c += coord * child_stride_in_parent[pg];
          }
          child[c].Merge(parent_flat[p]);
          ++aggregate_ops;
        }
      }
    }
  }

  // Phase 3: emit, finest first.
  ScopedPhase phase(timer, "emit");
  std::vector<Cuboid> out;
  out.reserve(full_mask + 1);
  std::vector<uint32_t> masks;
  for (uint32_t mask = 0; mask <= full_mask; ++mask) masks.push_back(mask);
  std::sort(masks.begin(), masks.end(), [](uint32_t a, uint32_t b) {
    const int pa = std::popcount(a), pb = std::popcount(b);
    return pa != pb ? pa > pb : a < b;
  });
  for (uint32_t mask : masks) {
    const GroupSpec& spec = specs[mask];
    out.push_back(Cuboid{mask, FlatToGroupedResult(
                                   spec, flats[mask],
                                   spec.GroupColumnNames(array))});
  }
  if (stats != nullptr) stats->aggregate_ops = aggregate_ops;
  return out;
}

}  // namespace paradise
