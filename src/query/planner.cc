#include "query/planner.h"

#include "query/sql.h"

namespace paradise {

namespace {

/// Fraction of one dimension's members a selection keeps: matched distinct
/// values / attribute cardinality (uniform-members assumption, the same one
/// the paper's S = s^r analysis makes).
Result<double> SelectionFraction(const DimensionTable& dim,
                                 const query::Selection& s) {
  PARADISE_ASSIGN_OR_RETURN(const AttributeDictionary* dict,
                            dim.Dictionary(s.attr_col));
  if (dict->cardinality() == 0) return 1.0;
  size_t matched = 0;
  for (const query::Literal& lit : s.values) {
    if (dict->value_to_code.contains(query::NormalizeLiteral(lit))) {
      ++matched;
    }
  }
  return static_cast<double>(matched) /
         static_cast<double>(dict->cardinality());
}

}  // namespace

Result<PlanChoice> ChoosePlan(const Database& db,
                              const query::ConsolidationQuery& q,
                              const PlannerOptions& options) {
  std::vector<size_t> dim_cols;
  for (const DimensionSpec& d : db.schema().dims) {
    dim_cols.push_back(d.attrs.size());
  }
  PARADISE_RETURN_IF_ERROR(q.Validate(dim_cols));

  PlanChoice choice;
  if (db.ingested()) {
    // After any incremental ingest commit the relational fact file is
    // stale; only the array sees the merged data, so the crossover logic
    // below no longer applies.
    if (!db.has_olap()) {
      return Status::NotSupported(
          "database has ingested data but no OLAP array");
    }
    choice.engine = EngineKind::kArray;
    choice.reason = "ingested data: only the array reflects it";
    return choice;
  }
  if (std::optional<AggregateMatch> match = db.FindAggregate(q)) {
    choice.engine = EngineKind::kArray;
    choice.reason = "derivable from materialized aggregate '" +
                    match->aggregate->provenance.name + "'";
    return choice;
  }
  if (!q.HasSelection()) {
    if (db.has_olap()) {
      choice.engine = EngineKind::kArray;
      choice.reason = "no selection: array consolidation always wins (Fig 4/5)";
    } else {
      choice.engine = EngineKind::kStarJoin;
      choice.reason = "no selection and no OLAP array: star join";
    }
    return choice;
  }

  double selectivity = 1.0;
  for (size_t d = 0; d < q.dims.size(); ++d) {
    for (const query::Selection& s : q.dims[d].selections) {
      PARADISE_ASSIGN_OR_RETURN(double f, SelectionFraction(db.dim(d), s));
      selectivity *= f;
    }
  }
  choice.estimated_selectivity = selectivity;

  const bool bitmap_available =
      CheckEngineAccepts(db, EngineKind::kBitmap, q).ok();

  if (selectivity < options.bitmap_crossover && bitmap_available) {
    choice.engine = EngineKind::kBitmap;
    choice.reason = "S=" + std::to_string(selectivity) +
                    " below the crossover: bitmap + fact file (Fig 8/9)";
  } else if (db.has_olap()) {
    choice.engine = EngineKind::kArray;
    choice.reason = "S=" + std::to_string(selectivity) +
                    " above the crossover: array selection (Fig 6/7)";
  } else if (bitmap_available) {
    choice.engine = EngineKind::kBitmap;
    choice.reason = "no OLAP array: bitmap + fact file";
  } else {
    choice.engine = EngineKind::kStarJoin;
    choice.reason = "no OLAP array or bitmap indexes: filtered star join";
  }
  return choice;
}

DeriveDecision ChooseDeriveOrScan(const Database& db, uint64_t candidate_rows,
                                  uint64_t derive_row_cost) {
  DeriveDecision d;
  d.derive_cost = candidate_rows * derive_row_cost;
  d.scan_cost = db.has_olap() ? db.olap()->layout().total_cells()
                              : db.fact()->num_tuples();
  d.derive = d.derive_cost < d.scan_cost;
  d.reason = "derive=" + std::to_string(d.derive_cost) +
             " vs scan=" + std::to_string(d.scan_cost) +
             (d.derive ? ": roll up the cached result"
                       : ": cached result too wide, rescan");
  return d;
}

Result<SqlExecution> RunSql(Database* db, std::string_view sql, bool cold,
                            const PlannerOptions& options) {
  PARADISE_ASSIGN_OR_RETURN(query::ConsolidationQuery q,
                            query::CompileSql(sql, db->schema()));
  SqlExecution out;
  PARADISE_ASSIGN_OR_RETURN(out.plan, ChoosePlan(*db, q, options));
  RunQueryOptions run_options;
  run_options.cold = cold;
  run_options.num_threads = options.num_threads;
  run_options.cache = options.cache;
  PARADISE_ASSIGN_OR_RETURN(out.execution,
                            RunQuery(db, out.plan.engine, q, run_options));
  return out;
}

}  // namespace paradise
