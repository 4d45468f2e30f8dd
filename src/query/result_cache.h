// ConsolidationResultCache: a memory-bounded, epoch-invalidated result cache
// for consolidation queries — the query-level caching layer Szépkúti's
// "Caching in Multidimensional Databases" motivates for OLAP workloads
// dominated by repeated and hierarchically related consolidations.
//
// Three ideas, layered:
//   1. Canonical signatures. Every ConsolidationQuery is normalized into a
//      CanonicalQuery (selections merged per attribute column, value lists
//      normalized/deduped/sorted, the aggregate function dropped — engines
//      maintain the full AggState, so SUM/COUNT/MIN/MAX/AVG of the same
//      grouping share one cached result). Equivalent spellings of a query
//      hash to the same signature.
//   2. Roll-up derivability. A cached result at a finer hierarchy level can
//      answer any coarser group-by of the same selection/measure by
//      re-aggregating its rows through the per-dimension IndexToIndex maps
//      (paper §3.4), when the data satisfies the finer→coarser functional
//      dependency (IndexToIndexArray::FunctionalRollUp). RunQuery does the
//      re-aggregation with RollUp (core/aggregate.h): each row merges at its
//      mapped position in the target's flat result array, so the derived
//      result comes out in canonical order with no ordered map and no sort.
//      Because AggState carries SUM/COUNT/MIN/MAX exactly, derived results
//      are bit-identical to a full scan.
//   3. Invalidation by commit epoch. Entries are scoped to a database
//      identity string and the commit epoch of the manifest that was current
//      when they were inserted (storage/page.h, PR 2). Any durable change
//      advances the epoch, so a lookup after a reload/checkpoint of modified
//      data can never serve a stale result.
//
// The cache is thread-safe (one mutex guards the LRU list and index; cached
// results are immutable shared_ptrs) and memory-bounded: entries are charged
// an approximate byte cost and the least recently used entries are evicted
// once the budget is exceeded. Hit/miss/derivation/eviction counts feed the
// process-wide MetricsRegistry under "resultcache.*".
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/query.h"
#include "query/result.h"

namespace paradise {
class Counter;
class Gauge;
class Histogram;
}  // namespace paradise

namespace paradise::query {

/// One dimension of a canonicalized query: the group-by column plus the
/// selections merged per attribute column. Multiple ANDed selections on the
/// same column intersect to one normalized, sorted, deduplicated value set
/// (an empty set after intersection is kept — it selects nothing, exactly
/// like the engines' AND of disjoint value lists).
struct CanonicalDimension {
  std::optional<size_t> group_by_col;
  /// (attr_col, sorted distinct normalized values), sorted by attr_col.
  std::vector<std::pair<size_t, std::vector<int64_t>>> selections;

  bool operator==(const CanonicalDimension& o) const = default;
};

/// Canonical form of a ConsolidationQuery. Two queries with equal canonical
/// forms produce byte-identical GroupedResults on every engine.
struct CanonicalQuery {
  size_t measure = 0;
  std::vector<CanonicalDimension> dims;

  static CanonicalQuery From(const ConsolidationQuery& q);

  /// Deterministic textual signature; equal signatures iff equal canonical
  /// queries. Human-readable on purpose (shows up in tests and traces):
  ///   "m0|d0:g1;s1{3,17};s2{5}|d1:g-|d2:g2"
  std::string Signature() const;

  /// True when this query's selections and measure equal `o`'s — the
  /// precondition for answering one from the other by roll-up.
  bool SameSelectionFamily(const CanonicalQuery& o) const;

  bool operator==(const CanonicalQuery& o) const = default;
};

/// Monotonic cache statistics (snapshot; advisory under concurrency).
struct ResultCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t derived_hits = 0;   // answered by roll-up from a finer entry
  uint64_t insertions = 0;
  uint64_t evictions = 0;      // LRU byte-budget evictions
  uint64_t invalidations = 0;  // entries dropped on commit-epoch mismatch
  uint64_t bytes_in_use = 0;
  uint64_t entries = 0;
};

class ConsolidationResultCache {
 public:
  struct Options {
    /// LRU byte budget over the approximate cost of all cached results.
    size_t byte_budget = 64ull << 20;

    /// Cost model factor for the planner's derive-vs-scan decision: deriving
    /// re-aggregates one cached row for roughly this many cell-scan units.
    /// 0 means "always derive when structurally possible" (used by the
    /// equivalence tests to force the derivation path).
    uint64_t derive_row_cost = 4;

    /// Mirror cache events into MetricsRegistry::Default() under
    /// "resultcache.*" (handles resolved once, at construction).
    bool metrics_enabled = false;
  };

  ConsolidationResultCache();
  explicit ConsolidationResultCache(Options options);

  ConsolidationResultCache(const ConsolidationResultCache&) = delete;
  ConsolidationResultCache& operator=(const ConsolidationResultCache&) =
      delete;

  /// Exact-signature lookup. `scope` identifies the database+cube the query
  /// runs against; `epoch` is its current commit epoch. An entry whose
  /// epoch differs is dropped (counted as an invalidation) and the lookup
  /// misses. A hit refreshes LRU order and returns the immutable result.
  std::shared_ptr<const GroupedResult> Lookup(const std::string& scope,
                                              uint64_t epoch,
                                              const CanonicalQuery& canon);

  /// Like Lookup, but an epoch mismatch leaves the entry in place instead of
  /// dropping it. For readers pinned to a historical epoch (olapd's
  /// epoch-pinned sessions, server/session.h): a pinned reader must never
  /// invalidate the entry current-epoch traffic is using, and its own
  /// entries are reclaimed by normal Lookup invalidation or LRU pressure.
  std::shared_ptr<const GroupedResult> Peek(const std::string& scope,
                                            uint64_t epoch,
                                            const CanonicalQuery& canon);

  /// Inserts (or replaces) the result for a canonical query. Entries larger
  /// than the whole budget are rejected silently; otherwise LRU entries are
  /// evicted until the new entry fits.
  void Insert(const std::string& scope, uint64_t epoch,
              const CanonicalQuery& canon,
              std::shared_ptr<const GroupedResult> result);

  /// A cached entry that could answer `target` by roll-up: same scope,
  /// epoch, measure and selections, and grouped on every dimension `target`
  /// groups (at any level — the caller checks level derivability against the
  /// IndexToIndex maps). Ordered cheapest first (fewest rows).
  struct Candidate {
    CanonicalQuery canon;
    std::shared_ptr<const GroupedResult> result;
  };
  std::vector<Candidate> DerivationCandidates(const std::string& scope,
                                              uint64_t epoch,
                                              const CanonicalQuery& target);

  /// Records a successful derivation (metrics + counters only; the derived
  /// result itself is Insert()ed under its own signature by the caller).
  void NoteDerivedHit();

  ResultCacheStats stats() const;
  const Options& options() const { return options_; }

  /// Drops every entry (counts them as invalidations).
  void Clear();

 private:
  struct Entry {
    std::string key;  // scope + '\n' + signature
    std::string scope;
    uint64_t epoch = 0;
    CanonicalQuery canon;
    std::shared_ptr<const GroupedResult> result;
    size_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Heap footprint of a cached result: the entry, the key (held twice),
  /// both result columns' capacities and the column names. The bound is
  /// deliberately simple — the budget is a guardrail, not an allocator.
  static size_t EntryBytes(const std::string& key, const GroupedResult& r);

  /// Lookup without its timing; an entry at another epoch misses, and is
  /// dropped as an invalidation only when `invalidate` (Peek passes false).
  std::shared_ptr<const GroupedResult> Find(const std::string& scope,
                                            uint64_t epoch,
                                            const CanonicalQuery& canon,
                                            bool invalidate);
  void EvictToFitLocked(size_t incoming_bytes);
  void EraseLocked(LruList::iterator it, bool invalidation);

  const Options options_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  ResultCacheStats stats_;

  // Registry handles, null unless options_.metrics_enabled.
  Counter* m_hits_ = nullptr;
  Counter* m_misses_ = nullptr;
  Counter* m_derived_ = nullptr;
  Counter* m_insertions_ = nullptr;
  Counter* m_evictions_ = nullptr;
  Counter* m_invalidations_ = nullptr;
  Gauge* m_bytes_ = nullptr;
  Gauge* m_entries_ = nullptr;
  Histogram* m_lookup_micros_ = nullptr;
};

}  // namespace paradise::query
