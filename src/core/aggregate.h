// GroupSpec: the shape of a consolidation's result array — which dimensions
// are grouped, at which hierarchy level, the level cardinalities, and the
// row-major strides of the flat result array the array engine aggregates
// into position-based (paper §4.1: "each element of the result array is a
// 'group'"). RollUp re-aggregates a finer result into a coarser grouping
// through the same kind of flat array, so it too emits canonical order
// without a sort.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/olap_array.h"
#include "query/query.h"
#include "query/result.h"

namespace paradise {

struct GroupSpec {
  std::vector<size_t> grouped_dims;   // dimensions with a group-by, in order
  std::vector<size_t> group_cols;     // grouped attribute column per entry
  std::vector<int32_t> cardinalities; // level cardinality per entry
  std::vector<uint64_t> strides;      // row-major strides into the flat array
  uint64_t num_groups = 1;            // product of cardinalities

  /// Derives the spec from a validated query against `array`.
  static Result<GroupSpec> Make(const OlapArray& array,
                                const query::ConsolidationQuery& q);

  /// "<dim>.<attr>" labels for the result columns.
  std::vector<std::string> GroupColumnNames(const OlapArray& array) const;
};

/// Turns the flat result array into a canonical GroupedResult, dropping
/// empty groups (cells no input mapped to). `columns` names each grouped
/// dimension. An odometer over the cardinalities writes the code matrix, so
/// no row allocates; the rvalue form adopts `flat` as the AggState column
/// when no group is empty.
query::GroupedResult FlatToGroupedResult(const GroupSpec& spec,
                                         const std::vector<query::AggState>& flat,
                                         std::vector<std::string> columns);
query::GroupedResult FlatToGroupedResult(const GroupSpec& spec,
                                         std::vector<query::AggState>&& flat,
                                         std::vector<std::string> columns);

/// Where one group column of a finer result lands in a coarser grouping.
struct RollUpColumn {
  /// Index into the target GroupSpec's grouped columns; nullopt drops the
  /// column (the target collapses its dimension).
  std::optional<size_t> target;
  /// Finer code -> coarser code (IndexToIndexArray::FunctionalRollUp);
  /// empty when the code passes through unchanged.
  std::vector<int32_t> map;
};

/// Re-aggregates `finer` into `target`'s grouping by position: each row's
/// kept (and mapped) codes name one cell of a flat array of
/// target.num_groups states, the row merges there, and FlatToGroupedResult
/// emits the cells in canonical order — no hashing, no sort. `columns` has
/// one entry per finer group column and must land on every target column
/// exactly once. Returns nullopt, having written nothing outside the array,
/// when finer's rows are not columns.size() codes wide, a code lies outside
/// its map, or a kept code is >= its target cardinality.
std::optional<query::GroupedResult> RollUp(
    const query::GroupedResult& finer, const std::vector<RollUpColumn>& columns,
    const GroupSpec& target, std::vector<std::string> names);

}  // namespace paradise
