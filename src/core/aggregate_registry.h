// Materialized-aggregate registry and query rewriting — the paper's §1
// open problem of using arrays "transparently as a storage alternative or
// index-like query accelerator". Every ConsolidateToOlapArray records its
// provenance (base cube, measure, and which base dimension/level each
// result dimension came from); a later consolidation query against the base
// cube can then be rewritten to run against the (much smaller) aggregate
// when it is derivable from it:
//   * every grouped/selected base dimension is present in the aggregate,
//     grouped at a level at or below the query's levels;
//   * dimensions the aggregate collapsed are untouched by the query;
//   * the aggregate stores SUMs, so only SUM queries of the same measure
//     rewrite.
// The aggregate's dimension tables keep one coarser value per stored member,
// so reading a column coarser than the stored level is only exact when the
// base cube's hierarchy is functionally dependent there (finer level
// determines coarser). AnswerFromAggregates checks that on the base cube's
// IndexToIndexArray — the test RollUpCachedResult applies — and refuses the
// rewrite otherwise.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "query/query.h"
#include "query/result.h"
#include "storage/storage_manager.h"

namespace paradise {

class OlapArray;

struct AggregateProvenance {
  std::string name;       // the materialized cube's catalog name
  std::string base_cube;  // the cube it was consolidated from
  size_t measure = 0;     // base measure the sums aggregate

  struct Entry {
    size_t base_dim = 0;   // dimension index in the base cube
    size_t level_col = 0;  // grouped level (base dimension schema column)
  };
  /// One entry per result dimension, in result-dimension order.
  std::vector<Entry> grouped;

  std::string Serialize() const;
  static Result<AggregateProvenance> Deserialize(std::string_view data);
};

/// Persists provenance under catalog key "agg.<name>".
Status RegisterAggregate(StorageManager* storage,
                         const AggregateProvenance& provenance);

/// All registered aggregates (any base cube).
Result<std::vector<AggregateProvenance>> ListAggregates(
    StorageManager* storage);

/// If `q` (a query against the base cube with `base_num_dims` dimensions)
/// is derivable from `agg`, returns the rewritten query against the
/// aggregate cube; nullopt otherwise.
std::optional<query::ConsolidationQuery> RewriteForAggregate(
    const query::ConsolidationQuery& q, const AggregateProvenance& agg,
    size_t base_num_dims);

/// Scans the registry for aggregates of `base_cube` that can answer `q`
/// exactly (RewriteForAggregate plus the functional-dependency check above),
/// opens the one with the fewest dimensions, runs the rewritten query and
/// returns its result — or nullopt if no aggregate applies. `used` (if
/// non-null) receives the chosen aggregate's name. `base` is the open base
/// cube when the caller has it; otherwise it is opened from `storage` once
/// some aggregate rewrites `q`.
Result<std::optional<query::GroupedResult>> AnswerFromAggregates(
    StorageManager* storage, const std::string& base_cube,
    const query::ConsolidationQuery& q, std::string* used = nullptr,
    const OlapArray* base = nullptr);

}  // namespace paradise
