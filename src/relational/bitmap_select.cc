#include "relational/bitmap_select.h"

namespace paradise {

Result<query::GroupedResult> BitmapSelectConsolidate(
    const RelationalInput& in,
    const std::vector<std::vector<std::shared_ptr<BitmapJoinIndex>>>&
        bitmap_indexes,
    uint64_t* result_bits) {
  const query::ConsolidationQuery& q = *in.query;

  // Phase 1: retrieve and AND the bitmaps (paper's pseudo-code: start from
  // all-ones, AND in each selected dimension's merged bitmap).
  Bitmap result_bitmap = Bitmap::AllOnes(in.fact->num_tuples());
  {
    ScopedPhase phase(in.timer, "bitmaps");
    for (size_t i = 0; i < q.dims.size(); ++i) {
      for (const query::Selection& s : q.dims[i].selections) {
        PARADISE_RETURN_IF_ERROR(in.CheckCancel());
        std::vector<int64_t> values;
        values.reserve(s.values.size());
        for (const query::Literal& lit : s.values) {
          values.push_back(query::NormalizeLiteral(lit));
        }
        // OR the selected values of one attribute, then AND across
        // attributes/dimensions.
        PARADISE_ASSIGN_OR_RETURN(
            Bitmap b, bitmap_indexes[i][s.attr_col]->LookupAny(values));
        PARADISE_RETURN_IF_ERROR(result_bitmap.And(b));
      }
    }
  }
  if (result_bits != nullptr) *result_bits = result_bitmap.CountOnes();

  // Phase 2: group-by probe tables for the grouped dimensions only (the
  // bitmap already decided the selection).
  PARADISE_ASSIGN_OR_RETURN(FactAggregator agg,
                            FactAggregator::Build(in, ProbeMode::kGroupOnly));

  // Phase 3: fetch qualifying tuples through the fact file and aggregate.
  {
    ScopedPhase phase(in.timer, "fetch+aggregate");
    PARADISE_RETURN_IF_ERROR(in.fact->FetchBitmap(
        result_bitmap, [&](uint64_t tuple, const char* record) {
          return agg.Add(tuple, record);
        }));
  }
  return agg.Finish();
}

}  // namespace paradise
