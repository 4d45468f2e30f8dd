#include "relational/hash_join.h"

namespace paradise {

namespace {

/// One materialized intermediate row: the not-yet-joined foreign keys, the
/// group codes accumulated so far, and the measure.
struct JoinRow {
  std::vector<int32_t> pending_keys;
  std::vector<int32_t> group;
  int64_t measure;
};

}  // namespace

Result<query::GroupedResult> LeftDeepJoinConsolidate(
    const RelationalInput& in, uint64_t* intermediate_rows) {
  const query::ConsolidationQuery& q = *in.query;
  const size_t n = in.dims.size();
  const size_t measure_col = n + q.measure;

  std::vector<size_t> joined_dims;
  for (size_t i = 0; i < n; ++i) {
    if (q.dims[i].group_by_col.has_value() || !q.dims[i].selections.empty()) {
      joined_dims.push_back(i);
    }
  }

  uint64_t intermediates = 0;

  // Stage 0: scan the fact file into the first materialized intermediate.
  std::vector<JoinRow> current;
  {
    ScopedPhase phase(in.timer, "fact-scan");
    current.reserve(in.fact->num_tuples());
    const Schema& fs = *in.fact_schema;
    PagePoll poll(in);
    PARADISE_RETURN_IF_ERROR(in.fact->ScanAll(
        [&](uint64_t tuple, const char* record) -> Status {
          PARADISE_RETURN_IF_ERROR(poll(tuple));
          TupleRef t(&fs, record);
          JoinRow row;
          row.pending_keys.reserve(joined_dims.size());
          for (size_t d : joined_dims) row.pending_keys.push_back(t.GetInt32(d));
          row.measure = t.GetInt64(measure_col);
          current.push_back(std::move(row));
          return Status::OK();
        }));
    intermediates += current.size();
  }

  // One pipeline stage per joined dimension: probe, filter, extend the
  // group vector, materialize the next intermediate.
  for (size_t stage = 0; stage < joined_dims.size(); ++stage) {
    const size_t d = joined_dims[stage];
    const DimensionTable& dim = *in.dims[d];
    ScopedPhase phase(in.timer, "join-" + dim.name());
    PARADISE_RETURN_IF_ERROR(in.CheckCancel());
    PARADISE_ASSIGN_OR_RETURN(
        ProbeTable table,
        BuildProbeTable(dim, q.dims[d], ProbeMode::kSelectAndGroup));
    std::vector<JoinRow> next;
    next.reserve(current.size());
    for (JoinRow& row : current) {
      const int32_t fk = row.pending_keys[stage];
      auto it = table.find(fk);
      if (it == table.end()) return UnknownKey(fk, dim);
      if (!it->second.passes) continue;
      JoinRow out = std::move(row);
      if (q.dims[d].group_by_col.has_value()) {
        out.group.push_back(it->second.group_code);
      }
      next.push_back(std::move(out));
    }
    current = std::move(next);
    intermediates += current.size();
  }

  // Final hash aggregation over the last intermediate.
  GroupMap groups;
  {
    ScopedPhase phase(in.timer, "aggregate");
    PARADISE_RETURN_IF_ERROR(in.CheckCancel());
    for (const JoinRow& row : current) {
      groups[row.group].Add(row.measure);
    }
  }
  if (intermediate_rows != nullptr) *intermediate_rows = intermediates;
  return EmitGroups(GroupColumnNames(in), groups);
}

}  // namespace paradise
