#include "relational/star_join.h"

namespace paradise {

Result<query::GroupedResult> StarJoinConsolidate(const RelationalInput& in) {
  // Phase 1: one hash table per dimension that is grouped or selected;
  // purely-collapsed unselected dimensions need no join at all.
  PARADISE_ASSIGN_OR_RETURN(
      FactAggregator agg,
      FactAggregator::Build(in, ProbeMode::kSelectAndGroup));

  // Phase 2: scan the fact file once; probe, filter, and aggregate
  // value-based into the aggregation hash table.
  {
    ScopedPhase phase(in.timer, "scan+aggregate");
    PARADISE_RETURN_IF_ERROR(in.fact->ScanAll(
        [&](uint64_t tuple, const char* record) {
          return agg.Add(tuple, record);
        }));
  }
  return agg.Finish();
}

}  // namespace paradise
