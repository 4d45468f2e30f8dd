// GroupedResult: the canonical result container both engines produce, keyed
// by dense group codes (one int32 per grouped dimension, in dimension
// order) and stored by column: a row-major code matrix plus an AggState
// column, so emitting, caching and serializing a result moves two arrays
// instead of one heap vector per group. The integration tests assert
// byte-for-byte equality between the array engine and the relational
// engines on the same query.
#pragma once

#include <cstdint>
#include <limits>
#include <ranges>
#include <span>
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

/// One result row, seen in place: `group` points into its result's code
/// matrix, so a row owns nothing and is valid only while the result is
/// alive and unchanged. GroupedResult::Add copies one in.
struct ResultRow {
  std::span<const int32_t> group;  // dense codes, one per grouped dimension
  AggState agg;
};

/// A consolidation's answer, stored by column: one row-major code matrix of
/// num_groups() rows × width() codes, and one AggState per row. The row
/// count is the AggState column's length, so a result that groups nothing
/// (width 0, every dimension collapsed) still holds its single row.
class GroupedResult {
 public:
  GroupedResult() = default;
  explicit GroupedResult(std::vector<std::string> group_columns)
      : group_columns_(std::move(group_columns)),
        width_(group_columns_.size()) {}
  /// Adopts filled columns: `codes` holds aggs.size() rows of one code per
  /// group column each.
  GroupedResult(std::vector<std::string> group_columns,
                std::vector<int32_t> codes, std::vector<AggState> aggs)
      : group_columns_(std::move(group_columns)),
        width_(group_columns_.size()),
        codes_(std::move(codes)),
        aggs_(std::move(aggs)) {}

  /// Appends a copy of `row` and returns true. An empty result takes its
  /// width from the row; once it holds a row, a row of another width is
  /// refused (false, result unchanged), so the code matrix always holds
  /// exactly num_groups() × width() codes.
  bool Add(const ResultRow& row) {
    if (aggs_.empty()) {
      width_ = row.group.size();
    } else if (row.group.size() != width_) {
      return false;
    }
    codes_.insert(codes_.end(), row.group.begin(), row.group.end());
    aggs_.push_back(row.agg);
    return true;
  }

  /// Room for `rows` more rows of the current width.
  void Reserve(size_t rows) {
    codes_.reserve(codes_.size() + rows * width_);
    aggs_.reserve(aggs_.size() + rows);
  }

  /// Sorts rows lexicographically by group codes (one row permutation, only
  /// when they are out of order); call before comparing.
  void SortCanonical();

  /// The rows as ResultRow views, in stored order: a random-access range
  /// with size(), empty() and operator[].
  auto rows() const {
    return std::views::iota(size_t{0}, aggs_.size()) |
           std::views::transform([this](size_t i) {
             return ResultRow{{codes_.data() + i * width_, width_}, aggs_[i]};
           });
  }

  const std::vector<std::string>& group_columns() const {
    return group_columns_;
  }
  size_t num_groups() const { return aggs_.size(); }
  /// Group codes per row.
  size_t width() const { return width_; }
  /// Row i's codes are codes()[i * width(), (i + 1) * width()).
  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<AggState>& aggs() const { return aggs_; }

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
  size_t width_ = 0;
  std::vector<int32_t> codes_;  // row-major, aggs_.size() × width_
  std::vector<AggState> aggs_;
};

}  // namespace paradise::query
