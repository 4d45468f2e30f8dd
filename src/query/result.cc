#include "query/result.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace paradise::query {

double AggState::Finalize(AggFunc f) const {
  switch (f) {
    case AggFunc::kSum:
      return static_cast<double>(sum);
    case AggFunc::kCount:
      return static_cast<double>(count);
    case AggFunc::kMin:
      return count == 0 ? 0.0 : static_cast<double>(min);
    case AggFunc::kMax:
      return count == 0 ? 0.0 : static_cast<double>(max);
    case AggFunc::kAvg:
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
  }
  return 0.0;
}

void GroupedResult::SortCanonical() {
  const size_t n = aggs_.size();
  const int32_t* codes = codes_.data();
  const size_t w = width_;
  auto less = [codes, w](size_t a, size_t b) {
    return std::lexicographical_compare(codes + a * w, codes + (a + 1) * w,
                                        codes + b * w, codes + (b + 1) * w);
  };
  // Producers that walk a flat array emit canonical order already; only the
  // relational engines' hash group-by needs the permutation.
  size_t i = 1;
  while (i < n && !less(i, i - 1)) ++i;
  if (i >= n) return;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), less);
  std::vector<int32_t> sorted_codes(codes_.size());
  std::vector<AggState> sorted_aggs(n);
  for (size_t r = 0; r < n; ++r) {
    std::copy_n(codes + order[r] * w, w, sorted_codes.data() + r * w);
    sorted_aggs[r] = aggs_[order[r]];
  }
  codes_ = std::move(sorted_codes);
  aggs_ = std::move(sorted_aggs);
}

bool GroupedResult::SameAs(const GroupedResult& other) const {
  if (aggs_.size() != other.aggs_.size()) return false;
  if (aggs_.empty()) return true;
  return width_ == other.width_ && codes_ == other.codes_ &&
         aggs_ == other.aggs_;
}

std::string GroupedResult::ToString(AggFunc f, size_t max_rows) const {
  std::ostringstream os;
  for (const std::string& c : group_columns_) os << c << '\t';
  os << AggFuncToString(f) << '\n';
  size_t shown = 0;
  for (const ResultRow& r : rows()) {
    if (shown++ >= max_rows) {
      os << "... (" << aggs_.size() - max_rows << " more rows)\n";
      break;
    }
    for (int32_t g : r.group) os << g << '\t';
    os << r.agg.Finalize(f) << '\n';
  }
  return os.str();
}

int64_t GroupedResult::TotalSum() const {
  int64_t total = 0;
  for (const AggState& a : aggs_) total += a.sum;
  return total;
}

}  // namespace paradise::query
