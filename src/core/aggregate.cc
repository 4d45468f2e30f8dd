#include "core/aggregate.h"

#include <algorithm>

namespace paradise {

Result<GroupSpec> GroupSpec::Make(const OlapArray& array,
                                  const query::ConsolidationQuery& q) {
  PARADISE_RETURN_IF_ERROR(q.Validate(array.DimNumColumns()));
  if (q.measure >= array.num_measures()) {
    return Status::InvalidArgument(
        "measure index " + std::to_string(q.measure) + " out of range (" +
        std::to_string(array.num_measures()) + " measures)");
  }
  GroupSpec spec;
  for (size_t d = 0; d < q.dims.size(); ++d) {
    if (!q.dims[d].group_by_col.has_value()) continue;
    const size_t col = *q.dims[d].group_by_col;
    spec.grouped_dims.push_back(d);
    spec.group_cols.push_back(col);
    spec.cardinalities.push_back(array.i2i(d).Cardinality(col));
  }
  spec.strides.resize(spec.grouped_dims.size());
  uint64_t stride = 1;
  for (size_t g = spec.grouped_dims.size(); g > 0; --g) {
    spec.strides[g - 1] = stride;
    stride *= static_cast<uint64_t>(spec.cardinalities[g - 1]);
  }
  spec.num_groups = stride;
  return spec;
}

std::vector<std::string> GroupSpec::GroupColumnNames(
    const OlapArray& array) const {
  std::vector<std::string> names;
  names.reserve(grouped_dims.size());
  for (size_t g = 0; g < grouped_dims.size(); ++g) {
    const size_t d = grouped_dims[g];
    names.push_back(array.dim_name(d) + "." +
                    array.dim_schema(d).column(group_cols[g]).name);
  }
  return names;
}

namespace {

// Both FlatToGroupedResult forms; `adoptable` is `flat` itself when the
// caller gave it up. `flat` is empty or holds spec.num_groups states.
query::GroupedResult EmitFlat(const GroupSpec& spec,
                              const std::vector<query::AggState>& flat,
                              std::vector<query::AggState>* adoptable,
                              std::vector<std::string> columns) {
  // The flat index is row-major over the grouped dimensions, so walking it
  // in order emits the rows already in SortCanonical's lexicographic order.
  // The last grouped dimension varies fastest: its code is the inner loop's
  // counter, and only the codes before it advance like an odometer.
  size_t rows = 0;
  for (const query::AggState& a : flat) rows += a.count != 0 ? 1 : 0;
  const size_t width = spec.cardinalities.size();
  const bool adopt = adoptable != nullptr && rows == flat.size();
  std::vector<int32_t> codes(rows * width);
  std::vector<query::AggState> aggs;
  if (!adopt) aggs.reserve(rows);
  const size_t outer = width == 0 ? 0 : width - 1;
  const size_t inner =
      width == 0 ? 1 : static_cast<size_t>(spec.cardinalities[outer]);
  std::vector<int32_t> at(outer, 0);
  int32_t* out = codes.data();
  for (size_t base = 0; base < flat.size(); base += inner) {
    for (size_t c = 0; c < inner; ++c) {
      const query::AggState& a = flat[base + c];
      if (a.count == 0) continue;
      std::copy_n(at.data(), outer, out);
      if (outer < width) out[outer] = static_cast<int32_t>(c);
      out += width;
      if (!adopt) aggs.push_back(a);
    }
    size_t g = outer;
    while (g > 0 && ++at[g - 1] == spec.cardinalities[g - 1]) at[--g] = 0;
  }
  if (adopt) aggs = std::move(*adoptable);
  return query::GroupedResult(std::move(columns), std::move(codes),
                              std::move(aggs));
}

}  // namespace

query::GroupedResult FlatToGroupedResult(
    const GroupSpec& spec, const std::vector<query::AggState>& flat,
    std::vector<std::string> columns) {
  return EmitFlat(spec, flat, nullptr, std::move(columns));
}

query::GroupedResult FlatToGroupedResult(const GroupSpec& spec,
                                         std::vector<query::AggState>&& flat,
                                         std::vector<std::string> columns) {
  return EmitFlat(spec, flat, &flat, std::move(columns));
}

std::optional<query::GroupedResult> RollUp(
    const query::GroupedResult& finer, const std::vector<RollUpColumn>& columns,
    const GroupSpec& target, std::vector<std::string> names) {
  // Each target column takes exactly one finer column, so a flat index built
  // from in-range codes stays below num_groups.
  std::vector<bool> covered(target.grouped_dims.size(), false);
  size_t landed = 0;
  for (const RollUpColumn& column : columns) {
    if (!column.target.has_value()) continue;
    if (*column.target >= covered.size() || covered[*column.target]) {
      return std::nullopt;
    }
    covered[*column.target] = true;
    ++landed;
  }
  if (landed != covered.size()) return std::nullopt;
  if (finer.num_groups() > 0 && finer.width() != columns.size()) {
    return std::nullopt;
  }
  std::vector<query::AggState> flat(target.num_groups);
  const int32_t* codes = finer.codes().data();
  for (const query::AggState& agg : finer.aggs()) {
    uint64_t at = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      const RollUpColumn& column = columns[c];
      if (!column.target.has_value()) continue;
      int32_t code = codes[c];
      if (!column.map.empty()) {
        if (code < 0 || static_cast<size_t>(code) >= column.map.size()) {
          return std::nullopt;
        }
        code = column.map[static_cast<size_t>(code)];
      }
      if (code < 0 || code >= target.cardinalities[*column.target]) {
        return std::nullopt;
      }
      at += static_cast<uint64_t>(code) * target.strides[*column.target];
    }
    flat[at].Merge(agg);
    codes += columns.size();
  }
  return FlatToGroupedResult(target, std::move(flat), std::move(names));
}

}  // namespace paradise
