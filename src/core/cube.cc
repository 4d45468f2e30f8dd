#include "core/cube.h"

#include <algorithm>
#include <bit>

#include "core/aggregate.h"
#include "core/consolidate.h"

namespace paradise {

namespace {

/// Shape of one cuboid's flat array: which dims it groups, their level
/// cardinalities and row-major strides.
struct CuboidShape {
  std::vector<size_t> dims;        // grouped dimensions, ascending
  std::vector<int32_t> cards;      // per grouped dimension
  std::vector<uint64_t> strides;   // row-major
  uint64_t num_groups = 1;
};

CuboidShape ShapeFor(uint32_t mask, size_t n,
                     const std::vector<int32_t>& level_cards) {
  CuboidShape shape;
  for (size_t d = 0; d < n; ++d) {
    if ((mask >> d) & 1) {
      shape.dims.push_back(d);
      shape.cards.push_back(level_cards[d]);
    }
  }
  shape.strides.resize(shape.dims.size());
  uint64_t stride = 1;
  for (size_t g = shape.dims.size(); g > 0; --g) {
    shape.strides[g - 1] = stride;
    stride *= static_cast<uint64_t>(shape.cards[g - 1]);
  }
  shape.num_groups = stride;
  return shape;
}

}  // namespace

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
  std::vector<int32_t> level_cards(n);
  for (size_t d = 0; d < n; ++d) {
    const size_t col = cube.level_cols[d];
    if (col == 0 || col >= array.dim_schema(d).num_columns()) {
      return Status::InvalidArgument("bad level column on dimension " +
                                     std::to_string(d));
    }
    level_cards[d] = array.i2i(d).Cardinality(col);
  }

  const uint32_t full_mask = static_cast<uint32_t>((1u << n) - 1);
  std::vector<CuboidShape> shapes(full_mask + 1);
  std::vector<std::vector<query::AggState>> flats(full_mask + 1);
  for (uint32_t mask = 0; mask <= full_mask; ++mask) {
    shapes[mask] = ShapeFor(mask, n, level_cards);
  }

  uint64_t aggregate_ops = 0;

  // Phase 1: the finest cuboid straight from the chunked array (the §4.1
  // consolidation, position-based).
  {
    ScopedPhase phase(timer, "base-cuboid");
    query::ConsolidationQuery q;
    q.dims.resize(n);
    for (size_t d = 0; d < n; ++d) q.dims[d].group_by_col = cube.level_cols[d];
    PARADISE_ASSIGN_OR_RETURN(GroupSpec spec, GroupSpec::Make(array, q));
    flats[full_mask].assign(spec.num_groups, query::AggState{});
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
                shapes[full_mask].strides[g];
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
          if (shapes[candidate].num_groups < best) {
            best = shapes[candidate].num_groups;
            parent = candidate;
          }
        }
        const CuboidShape& ps = shapes[parent];
        const CuboidShape& cs = shapes[mask];
        // Child strides aligned to the parent's grouped-dim list: the child
        // keeps a subset of the parent's dims.
        std::vector<uint64_t> child_stride_in_parent(ps.dims.size(), 0);
        for (size_t pg = 0, cg = 0; pg < ps.dims.size(); ++pg) {
          if (cg < cs.dims.size() && cs.dims[cg] == ps.dims[pg]) {
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
          for (size_t pg = 0; pg < ps.dims.size(); ++pg) {
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
    const CuboidShape& cs = shapes[mask];
    std::vector<std::string> columns;
    for (size_t g = 0; g < cs.dims.size(); ++g) {
      const size_t d = cs.dims[g];
      columns.push_back(
          array.dim_name(d) + "." +
          array.dim_schema(d).column(cube.level_cols[d]).name);
    }
    query::GroupedResult result(std::move(columns));
    for (uint64_t i = 0; i < flats[mask].size(); ++i) {
      if (flats[mask][i].count == 0) continue;
      std::vector<int32_t> group(cs.dims.size());
      uint64_t rest = i;
      for (size_t g = 0; g < cs.dims.size(); ++g) {
        group[g] = static_cast<int32_t>(rest / cs.strides[g]);
        rest %= cs.strides[g];
      }
      result.Add(query::ResultRow{std::move(group), flats[mask][i]});
    }
    result.SortCanonical();
    out.push_back(Cuboid{mask, std::move(result)});
  }
  if (stats != nullptr) stats->aggregate_ops = aggregate_ops;
  return out;
}

}  // namespace paradise
