// GroupedResult: the canonical result container both engines produce, keyed
// by dense group codes (one int32 per grouped dimension, in dimension
// order). The integration tests assert byte-for-byte equality between the
// array engine and the relational engines on the same query.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "query/query.h"

namespace paradise::query {

/// Running aggregate state. All of SUM/COUNT/MIN/MAX are maintained so one
/// pass serves every AggFunc; Finalize picks the requested one.
struct AggState {
  int64_t sum = 0;
  uint64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  // Sums wrap modulo 2^64 (done in uint64_t, so overflow is defined):
  // bit-identical to int64 addition whenever nothing overflows. min and max
  // are stored unconditionally, so the update compiles to conditional moves
  // instead of two data-dependent branches that mispredict on shuffled data.
  void Add(int64_t v) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) +
                               static_cast<uint64_t>(v));
    ++count;
    min = v < min ? v : min;
    max = v > max ? v : max;
  }

  void Merge(const AggState& o) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) +
                               static_cast<uint64_t>(o.sum));
    count += o.count;
    min = o.min < min ? o.min : min;
    max = o.max > max ? o.max : max;
  }

  /// The requested aggregate as a double (AVG is fractional).
  double Finalize(AggFunc f) const;

  bool operator==(const AggState& o) const {
    return sum == o.sum && count == o.count && min == o.min && max == o.max;
  }
};

struct ResultRow {
  std::vector<int32_t> group;  // dense codes, one per grouped dimension
  AggState agg;
};

class GroupedResult {
 public:
  GroupedResult() = default;
  explicit GroupedResult(std::vector<std::string> group_columns)
      : group_columns_(std::move(group_columns)) {}

  void Add(ResultRow row) { rows_.push_back(std::move(row)); }

  /// Sorts rows lexicographically by group vector; call before comparing.
  void SortCanonical();

  const std::vector<ResultRow>& rows() const { return rows_; }
  std::vector<ResultRow>* mutable_rows() { return &rows_; }
  const std::vector<std::string>& group_columns() const {
    return group_columns_;
  }
  size_t num_groups() const { return rows_.size(); }

  /// Exact equality of groups and full aggregate state. Both results must
  /// already be in canonical order.
  bool SameAs(const GroupedResult& other) const;

  /// Human-readable table, at most `max_rows` rows.
  std::string ToString(AggFunc f, size_t max_rows = 20) const;

  /// Grand total of sums across groups (cheap sanity invariant: equals the
  /// sum over all selected cells regardless of grouping).
  int64_t TotalSum() const;

 private:
  std::vector<std::string> group_columns_;
  std::vector<ResultRow> rows_;
};

}  // namespace paradise::query
