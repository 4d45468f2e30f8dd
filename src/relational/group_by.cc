#include "relational/group_by.h"

#include <unordered_set>

namespace paradise {

Result<ProbeTable> BuildProbeTable(const DimensionTable& dim,
                                   const query::DimensionQuery& dq,
                                   ProbeMode mode) {
  // Normalize the selected values per attribute into code sets once.
  std::vector<std::pair<size_t, std::unordered_set<int32_t>>> selections;
  if (mode == ProbeMode::kSelectAndGroup) {
    for (const query::Selection& s : dq.selections) {
      std::unordered_set<int32_t> codes;
      for (const query::Literal& lit : s.values) {
        Result<int32_t> code =
            dim.ValueCode(s.attr_col, query::NormalizeLiteral(lit));
        if (code.ok()) {
          codes.insert(*code);
        }  // A value that never occurs simply selects nothing.
      }
      selections.emplace_back(s.attr_col, std::move(codes));
    }
  }

  ProbeTable table;
  table.reserve(dim.num_rows());
  for (uint32_t row = 0; row < dim.num_rows(); ++row) {
    DimProbe probe;
    for (const auto& [col, codes] : selections) {
      PARADISE_ASSIGN_OR_RETURN(int32_t c, dim.RowAttrCode(row, col));
      if (!codes.contains(c)) {
        probe.passes = false;
        break;
      }
    }
    if (dq.group_by_col.has_value()) {
      PARADISE_ASSIGN_OR_RETURN(probe.group_code,
                                dim.RowAttrCode(row, *dq.group_by_col));
    }
    table.emplace(dim.rows()[row].GetInt32(0), probe);
  }
  return table;
}

std::vector<std::string> GroupColumnNames(const RelationalInput& in) {
  std::vector<std::string> columns;
  for (size_t i = 0; i < in.dims.size(); ++i) {
    const std::optional<size_t>& col = in.query->dims[i].group_by_col;
    if (col.has_value()) {
      columns.push_back(in.dims[i]->name() + "." +
                        in.dims[i]->schema().column(*col).name);
    }
  }
  return columns;
}

query::GroupedResult EmitGroups(std::vector<std::string> group_columns,
                                const GroupMap& groups) {
  // Append in hash order, then sort once by a row permutation.
  query::GroupedResult result(std::move(group_columns));
  result.Reserve(groups.size());
  for (const auto& [group, agg] : groups) {
    result.Add(query::ResultRow{group, agg});
  }
  result.SortCanonical();
  return result;
}

Status UnknownKey(int32_t key, const DimensionTable& dim) {
  return Status::Corruption("fact tuple references unknown key " +
                            std::to_string(key) + " of dimension " +
                            dim.name());
}

FactAggregator::FactAggregator(const RelationalInput& in)
    : fact_schema_(in.fact_schema),
      measure_col_(in.dims.size() + in.query->measure),
      group_columns_(GroupColumnNames(in)),
      poll_(in) {}

Result<FactAggregator> FactAggregator::Build(const RelationalInput& in,
                                             ProbeMode mode) {
  ScopedPhase phase(in.timer, "build");
  FactAggregator agg(in);
  for (size_t i = 0; i < in.dims.size(); ++i) {
    const query::DimensionQuery& dq = in.query->dims[i];
    const bool grouped = dq.group_by_col.has_value();
    if (!grouped && (mode == ProbeMode::kGroupOnly || dq.selections.empty())) {
      continue;  // a collapsed, unfiltered dimension needs no join at all
    }
    PARADISE_ASSIGN_OR_RETURN(ProbeTable table,
                              BuildProbeTable(*in.dims[i], dq, mode));
    agg.probes_.push_back(Probe{i, grouped, in.dims[i], std::move(table)});
  }
  return agg;
}

}  // namespace paradise
