// A rule-based planner choosing the physical algorithm for a consolidation
// query — the role the paper assigns to the query optimizer once arrays are
// integrated with SQL processing (§1). Rules distilled from the paper's own
// findings:
//   * SUM derivable from a registered aggregate -> the array engine, whose
//     arm reads the aggregate (core/aggregate_registry.h): exact in SUM only,
//     so never cached;
//   * no selection          -> array consolidation (Fig. 4/5: always wins),
//                              or the star join if no array was built;
//   * selection             -> estimate the star selectivity S as the
//                              product of per-selection selected fractions;
//                              below the crossover (the paper's S ~= 2.4e-4)
//                              use the bitmap plan, above it the array.
#pragma once

#include <string>

#include "common/result.h"
#include "query/engine.h"
#include "query/query.h"
#include "schema/database.h"

namespace paradise {

struct PlanChoice {
  EngineKind engine = EngineKind::kArray;
  /// Estimated star selectivity (1.0 when there is no selection).
  double estimated_selectivity = 1.0;
  /// Human-readable rule trace for EXPLAIN-style output.
  std::string reason;
};

struct PlannerOptions {
  /// Crossover selectivity below which the bitmap plan is chosen; default
  /// is the paper's measured crossover (§5.6).
  double bitmap_crossover = 2.4e-4;

  /// Worker threads for array-engine plans (forwarded to
  /// RunQueryOptions::num_threads); 1 = serial. Parallel plans return
  /// bit-identical results.
  size_t num_threads = 1;

  /// Result cache forwarded to RunQueryOptions::cache (borrowed; nullptr =
  /// uncached, the default).
  query::ConsolidationResultCache* cache = nullptr;
};

/// The derive-vs-scan decision for the result cache: answer a query by
/// re-aggregating a cached finer-level result of `candidate_rows` rows, or
/// re-scan the base data. Deriving touches only the cached rows (each
/// costing ~`derive_row_cost` cell-scan units: map lookups plus a merge at
/// the row's position in the target's flat array); scanning touches every
/// array cell (or fact tuple when no array was built). derive_row_cost == 0 forces derivation whenever it is
/// structurally possible — the equivalence tests use that to pin the path.
struct DeriveDecision {
  bool derive = false;
  uint64_t derive_cost = 0;
  uint64_t scan_cost = 0;
  /// Human-readable rule trace, same spirit as PlanChoice::reason.
  std::string reason;
};
DeriveDecision ChooseDeriveOrScan(const Database& db, uint64_t candidate_rows,
                                  uint64_t derive_row_cost);

/// Picks an engine for `q` over `db`. Fails if the query is invalid for the
/// database's schema.
Result<PlanChoice> ChoosePlan(const Database& db,
                              const query::ConsolidationQuery& q,
                              const PlannerOptions& options = {});

/// Compiles a SQL string against the database's schema, plans it
/// (ChoosePlan) and runs it (RunQuery) — the same sequence olapd's sessions
/// follow. The returned Execution carries the chosen plan's stats.
struct SqlExecution {
  PlanChoice plan;
  Execution execution;
};
Result<SqlExecution> RunSql(Database* db, std::string_view sql,
                            bool cold = true,
                            const PlannerOptions& options = {});

}  // namespace paradise
