#include "core/aggregate.h"

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

std::vector<int32_t> GroupSpec::Decode(uint64_t flat) const {
  std::vector<int32_t> codes(grouped_dims.size());
  for (size_t g = 0; g < grouped_dims.size(); ++g) {
    codes[g] = static_cast<int32_t>(
        (flat / strides[g]) % static_cast<uint64_t>(cardinalities[g]));
  }
  return codes;
}

query::GroupedResult FlatToGroupedResult(
    const GroupSpec& spec, const std::vector<query::AggState>& flat,
    std::vector<std::string> columns) {
  // The flat index is row-major over the grouped dimensions, so walking it
  // in order emits the rows already in SortCanonical's lexicographic order.
  query::GroupedResult result(std::move(columns));
  for (uint64_t i = 0; i < flat.size(); ++i) {
    if (flat[i].count == 0) continue;
    result.Add(query::ResultRow{spec.Decode(i), flat[i]});
  }
  return result;
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
  std::vector<query::AggState> flat(target.num_groups);
  for (const query::ResultRow& row : finer.rows()) {
    if (row.group.size() != columns.size()) return std::nullopt;
    uint64_t at = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      const RollUpColumn& column = columns[c];
      if (!column.target.has_value()) continue;
      int32_t code = row.group[c];
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
    flat[at].Merge(row.agg);
  }
  return FlatToGroupedResult(target, flat, std::move(names));
}

}  // namespace paradise
