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

}  // namespace paradise
