// The relational engines' shared core: one input struct, the per-dimension
// probe tables, the value-based hash aggregation and the sorted emit. The
// four relational plans — the §4.3 star join and its left-deep strawman, the
// §4.4 B-tree join indexes and the §4.5 bitmap plan — differ only in how
// they reach the qualifying fact tuples (a full scan, staged
// materialization, tuple-list intersection + Get, bitmap AND + FetchBitmap);
// everything after that is this file.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "query/query.h"
#include "query/result.h"
#include "relational/dimension_table.h"
#include "relational/fact_file.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace paradise {

/// What every relational engine reads. The query has already passed
/// CheckEngineAccepts (query/engine.h) for the engine about to run, so the
/// engines do not re-check dimension count, columns, measure or index
/// coverage.
struct RelationalInput {
  const FactFile* fact = nullptr;
  const Schema* fact_schema = nullptr;      // n int32 keys + p int64 measures
  std::vector<const DimensionTable*> dims;  // in fact-column order
  const query::ConsolidationQuery* query = nullptr;
  PhaseTimer* timer = nullptr;              // optional phase breakdown
  /// Polled once per fact page (PagePoll) and between index lookups and
  /// left-deep stages; a fired token ends the engine with its typed Status.
  const CancellationToken* cancel = nullptr;

  Status CheckCancel() const {
    return cancel == nullptr ? Status::OK() : cancel->Check();
  }
};

/// Hash functor for dense group-code vectors (FNV-1a over the codes).
struct GroupVectorHash {
  size_t operator()(const std::vector<int32_t>& v) const {
    uint64_t h = 1469598103934665603ULL;
    for (int32_t c : v) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(c));
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

/// The aggregation hash table: group-code vector → running aggregate.
using GroupMap =
    std::unordered_map<std::vector<int32_t>, query::AggState, GroupVectorHash>;

/// One dimension key's probe outcome: whether it passes the dimension's
/// selections and, if the dimension is grouped, its group code.
struct DimProbe {
  bool passes = true;
  int32_t group_code = 0;
};
using ProbeTable = std::unordered_map<int32_t, DimProbe>;

/// Which dimensions a plan probes per fact tuple.
enum class ProbeMode {
  /// Grouped or selected dimensions, with the selection verdict: the star
  /// join and left-deep plans filter while they join.
  kSelectAndGroup,
  /// Grouped dimensions only, every key passing: the bitmap and B-tree
  /// plans' index already decided the selection.
  kGroupOnly,
};

/// Builds one dimension's key → DimProbe table.
Result<ProbeTable> BuildProbeTable(const DimensionTable& dim,
                                   const query::DimensionQuery& dq,
                                   ProbeMode mode);

/// The result's group columns: "<dim>.<attr>" per grouped dimension.
std::vector<std::string> GroupColumnNames(const RelationalInput& in);

/// The sorted emit: one row per group, in canonical order.
query::GroupedResult EmitGroups(std::vector<std::string> group_columns,
                                const GroupMap& groups);

/// The Corruption a fact key missing from its dimension table reports.
Status UnknownKey(int32_t key, const DimensionTable& dim);

/// Polls the cancellation token on the first tuple of each fact page.
/// Tuple numbers must ascend, as ScanAll, FetchBitmap and a sorted tuple
/// list all deliver them. Without a token it never polls.
class PagePoll {
 public:
  explicit PagePoll(const RelationalInput& in)
      : cancel_(in.cancel),
        tuples_per_page_(in.fact->tuples_per_page()),
        next_(in.cancel == nullptr ? UINT64_MAX : 0) {}

  Status operator()(uint64_t tuple) {
    if (tuple < next_) return Status::OK();
    next_ = (tuple / tuples_per_page_ + 1) * tuples_per_page_;
    return cancel_->Check();
  }

 private:
  const CancellationToken* cancel_;
  uint64_t tuples_per_page_;
  uint64_t next_;  // first tuple of the next page to poll on
};

/// The single-pass plans' per-tuple loop (star join, bitmap, B-tree): probe
/// the dimension tables, drop filtered tuples, aggregate by group vector.
class FactAggregator {
 public:
  /// Builds the probe tables under a "build" span.
  static Result<FactAggregator> Build(const RelationalInput& in,
                                      ProbeMode mode);

  /// Probes, filters and aggregates one fact tuple.
  Status Add(uint64_t tuple, const char* record) {
    PARADISE_RETURN_IF_ERROR(poll_(tuple));
    TupleRef t(fact_schema_, record);
    key_.clear();
    for (const Probe& p : probes_) {
      const int32_t fk = t.GetInt32(p.col);
      auto it = p.table.find(fk);
      if (it == p.table.end()) return UnknownKey(fk, *p.dim);
      if (!it->second.passes) return Status::OK();  // filtered out
      if (p.grouped) key_.push_back(it->second.group_code);
    }
    auto group = groups_.find(key_);
    if (group == groups_.end()) group = groups_.try_emplace(key_).first;
    group->second.Add(t.GetInt64(measure_col_));
    return Status::OK();
  }

  /// The sorted result of every tuple added so far.
  query::GroupedResult Finish() const {
    return EmitGroups(group_columns_, groups_);
  }

 private:
  struct Probe {
    size_t col;  // the dimension's fact-key column
    bool grouped;
    const DimensionTable* dim;
    ProbeTable table;
  };

  explicit FactAggregator(const RelationalInput& in);

  const Schema* fact_schema_;
  size_t measure_col_;
  std::vector<std::string> group_columns_;
  std::vector<Probe> probes_;  // in dimension order
  PagePoll poll_;
  std::vector<int32_t> key_;   // the current tuple's group vector
  GroupMap groups_;
};

}  // namespace paradise
