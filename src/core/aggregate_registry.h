// Materialized-aggregate registry and query rewriting — the paper's §1
// open problem of using arrays "transparently as a storage alternative or
// index-like query accelerator". Database::MaterializeAggregate records a
// materialized cube's provenance (base cube, measure, and which base
// dimension/level each result dimension came from) and keeps the cube open;
// RunQuery's array arm then answers a base-cube query from the aggregate
// ChooseAggregate picks when the query is derivable from it:
//   * every grouped/selected base dimension is present in the aggregate,
//     grouped at a level at or below the query's levels;
//   * dimensions the aggregate collapsed are untouched by the query;
//   * the aggregate stores SUMs, so only SUM queries of the same measure
//     rewrite; the answer is exact in SUM only, so it is never cached.
// The aggregate's dimension tables keep one coarser value per stored member,
// so reading a column coarser than the stored level is only exact when the
// base cube's hierarchy is functionally dependent there (finer level
// determines coarser). ChooseAggregate checks that on the base cube's
// IndexToIndexArray — the test the result cache's roll-up derivation
// applies — and refuses the rewrite otherwise.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/olap_array.h"
#include "query/query.h"
#include "storage/storage_manager.h"

namespace paradise {

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

/// A registered aggregate with its result cube, opened once.
struct RegisteredAggregate {
  AggregateProvenance provenance;
  OlapArray cube;
};
/// Registered aggregates by name.
using AggregateMap =
    std::map<std::string, std::shared_ptr<const RegisteredAggregate>>;

/// Records that cube `name` materializes `q` over `base_cube`: persists
/// the provenance under catalog key "agg.<name>" and returns it.
Result<AggregateProvenance> RegisterAggregate(
    StorageManager* storage, const std::string& name,
    const std::string& base_cube, const query::ConsolidationQuery& q);

/// Opens every aggregate registered for `base_cube` (Database::Open).
Result<AggregateMap> OpenAggregates(StorageManager* storage,
                                    const std::string& base_cube);

/// If `q` (a query against the base cube with `base_num_dims` dimensions)
/// is derivable from `agg`, returns the rewritten query against the
/// aggregate cube; nullopt otherwise.
std::optional<query::ConsolidationQuery> RewriteForAggregate(
    const query::ConsolidationQuery& q, const AggregateProvenance& agg,
    size_t base_num_dims);

/// An aggregate chosen to answer a query, and the query rewritten onto it.
struct AggregateMatch {
  std::shared_ptr<const RegisteredAggregate> aggregate;
  query::ConsolidationQuery query;
};

/// Among `aggregates` (all of the cube `base`), the one that answers `q`
/// exactly — RewriteForAggregate plus the functional-dependency check
/// above — with the fewest dimensions, ties broken by name; nullopt if
/// none does.
std::optional<AggregateMatch> ChooseAggregate(
    const AggregateMap& aggregates, const OlapArray& base,
    const query::ConsolidationQuery& q);

}  // namespace paradise
