#include "relational/btree_select.h"

#include <algorithm>

#include "index/btree.h"

namespace paradise {

namespace {

/// Sorted, distinct union of tuple-number lists for one selection's values.
Status SelectionTupleList(BufferPool* pool, PageId root,
                          const query::Selection& selection,
                          std::vector<uint64_t>* out) {
  PARADISE_ASSIGN_OR_RETURN(BTree tree, BTree::Open(pool, root));
  std::vector<int64_t> raw;
  for (const query::Literal& lit : selection.values) {
    PARADISE_RETURN_IF_ERROR(
        tree.GetValues(query::NormalizeLiteral(lit), &raw));
  }
  out->assign(raw.begin(), raw.end());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return Status::OK();
}

std::vector<uint64_t> Intersect(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

Result<query::GroupedResult> BTreeSelectConsolidate(
    const RelationalInput& in,
    const std::vector<std::vector<PageId>>& join_index_roots,
    BufferPool* pool, uint64_t* result_tuples) {
  const query::ConsolidationQuery& q = *in.query;

  // Phase 1: per selection, probe the join B-tree and intersect the sorted
  // tuple-number lists.
  std::vector<uint64_t> qualifying;
  bool first = true;
  {
    ScopedPhase phase(in.timer, "index-lookup");
    for (size_t d = 0; d < q.dims.size(); ++d) {
      for (const query::Selection& s : q.dims[d].selections) {
        PARADISE_RETURN_IF_ERROR(in.CheckCancel());
        std::vector<uint64_t> list;
        PARADISE_RETURN_IF_ERROR(SelectionTupleList(
            pool, join_index_roots[d][s.attr_col], s, &list));
        if (first) {
          qualifying = std::move(list);
          first = false;
        } else {
          qualifying = Intersect(qualifying, list);
        }
        if (qualifying.empty()) break;
      }
    }
  }
  if (result_tuples != nullptr) *result_tuples = qualifying.size();

  // Phase 2: group-by probe tables for the grouped dimensions.
  PARADISE_ASSIGN_OR_RETURN(FactAggregator agg,
                            FactAggregator::Build(in, ProbeMode::kGroupOnly));

  // Phase 3: fetch the qualifying tuples (ascending => page locality) and
  // aggregate.
  {
    ScopedPhase phase(in.timer, "fetch+aggregate");
    std::vector<char> record(in.fact_schema->record_size());
    for (uint64_t tuple : qualifying) {
      PARADISE_RETURN_IF_ERROR(in.fact->Get(tuple, record.data()));
      PARADISE_RETURN_IF_ERROR(agg.Add(tuple, record.data()));
    }
  }
  return agg.Finish();
}

}  // namespace paradise
