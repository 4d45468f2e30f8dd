// ConsolidationResultCache unit + integration tests: canonical-signature
// known answers, LRU eviction under a tiny byte budget, commit-epoch
// invalidation against a real database file, FunctionalRollUp derivability,
// the engine's cache-lookup → derive → full-scan fallback path, and a
// concurrency test intended for the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/index_to_index.h"
#include "ingest/ingest.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;
using query::AggFunc;
using query::CanonicalQuery;
using query::ConsolidationQuery;
using query::ConsolidationResultCache;
using query::GroupedResult;
using query::Literal;
using query::ResultCacheStats;
using query::Selection;

ConsolidationQuery ThreeDimQuery() {
  ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].group_by_col = 1;
  q.dims[1].group_by_col = 1;
  q.dims[2].group_by_col = 1;
  return q;
}

Selection Sel(size_t col, std::vector<int64_t> values) {
  Selection s;
  s.attr_col = col;
  for (int64_t v : values) s.values.push_back(Literal{v});
  return s;
}

// --- canonical-signature known-answer tests -------------------------------

TEST(CanonicalQueryTest, SignatureKnownAnswer) {
  ConsolidationQuery q = ThreeDimQuery();
  q.dims[1].group_by_col.reset();
  q.dims[2].group_by_col = 2;
  q.dims[0].selections.push_back(Sel(1, {17, 3}));
  q.measure = 0;
  EXPECT_EQ(CanonicalQuery::From(q).Signature(),
            "m0|d0:g1;s1{3,17}|d1:g-|d2:g2");
}

TEST(CanonicalQueryTest, SelectionOrderAndDuplicatesDoNotMatter) {
  ConsolidationQuery a = ThreeDimQuery();
  a.dims[0].selections.push_back(Sel(1, {5, 2, 5, 2}));
  a.dims[0].selections.push_back(Sel(2, {1}));

  ConsolidationQuery b = ThreeDimQuery();
  b.dims[0].selections.push_back(Sel(2, {1, 1}));
  b.dims[0].selections.push_back(Sel(1, {2, 5}));

  EXPECT_EQ(CanonicalQuery::From(a), CanonicalQuery::From(b));
  EXPECT_EQ(CanonicalQuery::From(a).Signature(),
            CanonicalQuery::From(b).Signature());
}

TEST(CanonicalQueryTest, AndOfSameColumnSelectionsIntersects) {
  // (col1 IN {2,5,9}) AND (col1 IN {5,9,11}) == col1 IN {5,9}.
  ConsolidationQuery a = ThreeDimQuery();
  a.dims[0].selections.push_back(Sel(1, {2, 5, 9}));
  a.dims[0].selections.push_back(Sel(1, {5, 9, 11}));

  ConsolidationQuery b = ThreeDimQuery();
  b.dims[0].selections.push_back(Sel(1, {5, 9}));

  EXPECT_EQ(CanonicalQuery::From(a).Signature(),
            CanonicalQuery::From(b).Signature());
}

TEST(CanonicalQueryTest, AggregateFunctionIsExcluded) {
  // Engines always maintain the full AggState, so one cached result answers
  // every AggFunc of the same grouping.
  ConsolidationQuery a = ThreeDimQuery();
  a.agg = AggFunc::kSum;
  ConsolidationQuery b = ThreeDimQuery();
  b.agg = AggFunc::kMin;
  EXPECT_EQ(CanonicalQuery::From(a).Signature(),
            CanonicalQuery::From(b).Signature());
}

TEST(CanonicalQueryTest, MeasureAndGroupingDistinguish) {
  ConsolidationQuery base = ThreeDimQuery();
  ConsolidationQuery other_measure = ThreeDimQuery();
  other_measure.measure = 1;
  ConsolidationQuery other_level = ThreeDimQuery();
  other_level.dims[1].group_by_col = 2;
  ConsolidationQuery collapsed = ThreeDimQuery();
  collapsed.dims[1].group_by_col.reset();

  const std::string sig = CanonicalQuery::From(base).Signature();
  EXPECT_NE(sig, CanonicalQuery::From(other_measure).Signature());
  EXPECT_NE(sig, CanonicalQuery::From(other_level).Signature());
  EXPECT_NE(sig, CanonicalQuery::From(collapsed).Signature());
}

TEST(CanonicalQueryTest, StringAndIntSpellingsNormalizeIdentically) {
  // NormalizeLiteral maps both spellings of the same dictionary key to one
  // int64, so mixed-type value lists canonicalize to one signature.
  ConsolidationQuery a = ThreeDimQuery();
  Selection s1;
  s1.attr_col = 1;
  s1.values.push_back(Literal{int64_t{7}});
  a.dims[0].selections.push_back(s1);

  ConsolidationQuery b = ThreeDimQuery();
  Selection s2;
  s2.attr_col = 1;
  s2.values.push_back(Literal{int64_t{7}});
  s2.values.push_back(Literal{int64_t{7}});
  b.dims[0].selections.push_back(s2);

  EXPECT_EQ(CanonicalQuery::From(a).Signature(),
            CanonicalQuery::From(b).Signature());
}

// --- LRU / stats unit tests ------------------------------------------------

std::shared_ptr<const GroupedResult> MakeResult(size_t rows, int32_t tag) {
  GroupedResult r({"dim0.a1"});
  for (size_t i = 0; i < rows; ++i) {
    query::AggState agg;
    agg.Add(tag + static_cast<int64_t>(i));
    const int32_t code = static_cast<int32_t>(i);
    r.Add(query::ResultRow{{&code, 1}, agg});
  }
  r.SortCanonical();
  return std::make_shared<const GroupedResult>(std::move(r));
}

CanonicalQuery TaggedQuery(size_t measure) {
  ConsolidationQuery q = ThreeDimQuery();
  q.measure = measure;
  return CanonicalQuery::From(q);
}

TEST(ResultCacheTest, HitMissAndLruRefresh) {
  ConsolidationResultCache cache;
  const CanonicalQuery q0 = TaggedQuery(0);
  EXPECT_EQ(cache.Lookup("db", 1, q0), nullptr);
  cache.Insert("db", 1, q0, MakeResult(4, 100));
  std::shared_ptr<const GroupedResult> hit = cache.Lookup("db", 1, q0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->num_groups(), 4u);
  // Different scope is a different entry space.
  EXPECT_EQ(cache.Lookup("other", 1, q0), nullptr);

  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_in_use, 0u);
}

TEST(ResultCacheTest, EntryBytesCountBothColumnsTheNamesAndTheKey) {
  // An empty, unnamed result costs its entry and its key alone. A 10 000-row
  // entry costs that much again plus exactly its two columns' capacities,
  // its one column name, and its key's extra length ("dbxy" is two bytes
  // longer than "db", and the key is held twice).
  ConsolidationResultCache cache;
  cache.Insert("db", 1, TaggedQuery(0), std::make_shared<const GroupedResult>());
  const uint64_t before = cache.stats().bytes_in_use;
  ASSERT_GT(before, 0u);
  const std::shared_ptr<const GroupedResult> big = MakeResult(10000, 3);
  ASSERT_EQ(big->codes().size(), 10000u);
  ASSERT_EQ(big->aggs().size(), 10000u);
  cache.Insert("dbxy", 1, TaggedQuery(1), big);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes_in_use - before,
            before + big->codes().capacity() * sizeof(int32_t) +
                big->aggs().capacity() * sizeof(query::AggState) +
                sizeof(std::string) + big->group_columns()[0].capacity() +
                2 * 2);
}

TEST(ResultCacheTest, EpochMismatchInvalidates) {
  ConsolidationResultCache cache;
  const CanonicalQuery q0 = TaggedQuery(0);
  cache.Insert("db", 1, q0, MakeResult(4, 100));
  // A newer epoch never serves the stale entry, and drops it.
  EXPECT_EQ(cache.Lookup("db", 2, q0), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The entry really is gone, even for the original epoch.
  EXPECT_EQ(cache.Lookup("db", 1, q0), nullptr);
}

TEST(ResultCacheTest, LruEvictionUnderTinyBudget) {
  // Measure one entry's accounted size, then budget for two and a half
  // entries so the third insert must evict exactly one.
  ConsolidationResultCache probe;
  probe.Insert("db", 1, TaggedQuery(0), MakeResult(2, 0));
  const uint64_t entry_bytes = probe.stats().bytes_in_use;
  ASSERT_GT(entry_bytes, 0u);

  ConsolidationResultCache::Options options;
  options.byte_budget = entry_bytes * 5 / 2;
  ConsolidationResultCache cache(options);

  cache.Insert("db", 1, TaggedQuery(0), MakeResult(2, 0));
  cache.Insert("db", 1, TaggedQuery(1), MakeResult(2, 10));
  ASSERT_NE(cache.Lookup("db", 1, TaggedQuery(0)), nullptr);  // refresh 0
  cache.Insert("db", 1, TaggedQuery(2), MakeResult(2, 20));   // evicts 1

  EXPECT_NE(cache.Lookup("db", 1, TaggedQuery(0)), nullptr);
  EXPECT_EQ(cache.Lookup("db", 1, TaggedQuery(1)), nullptr);
  EXPECT_NE(cache.Lookup("db", 1, TaggedQuery(2)), nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes_in_use, options.byte_budget);
}

TEST(ResultCacheTest, OversizedEntryIsRejected) {
  ConsolidationResultCache::Options options;
  options.byte_budget = 64;
  ConsolidationResultCache cache(options);
  cache.Insert("db", 1, TaggedQuery(0), MakeResult(1000, 0));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup("db", 1, TaggedQuery(0)), nullptr);
}

TEST(ResultCacheTest, PeekMismatchIsACleanMissThatLeavesTheEntry) {
  ConsolidationResultCache cache;
  const CanonicalQuery q0 = TaggedQuery(0);
  cache.Insert("db", 1, q0, MakeResult(4, 100));
  // A pinned reader probing a newer (or older) epoch misses cleanly...
  EXPECT_EQ(cache.Peek("db", 2, q0), nullptr);
  // ...without dropping the entry current-epoch traffic is serving from.
  EXPECT_EQ(cache.stats().invalidations, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);
  ASSERT_NE(cache.Peek("db", 1, q0), nullptr);
  ASSERT_NE(cache.Lookup("db", 1, q0), nullptr);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ConsolidationResultCache cache;
  cache.Insert("db", 1, TaggedQuery(0), MakeResult(2, 0));
  cache.Insert("db", 1, TaggedQuery(1), MakeResult(2, 1));
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
}

TEST(ResultCacheTest, MetricsRegistryCountersMirrorEvents) {
  MetricsRegistry::Default().ResetAll();
  ConsolidationResultCache::Options options;
  options.metrics_enabled = true;
  ConsolidationResultCache cache(options);
  cache.Insert("db", 1, TaggedQuery(0), MakeResult(2, 0));
  ASSERT_NE(cache.Lookup("db", 1, TaggedQuery(0)), nullptr);
  cache.Lookup("db", 1, TaggedQuery(1));

  MetricsRegistry& reg = MetricsRegistry::Default();
  ASSERT_NE(reg.FindCounter("resultcache.hits"), nullptr);
  EXPECT_EQ(reg.FindCounter("resultcache.hits")->value(), 1u);
  EXPECT_EQ(reg.FindCounter("resultcache.misses")->value(), 1u);
  EXPECT_EQ(reg.FindCounter("resultcache.insertions")->value(), 1u);
  ASSERT_NE(reg.FindGauge("resultcache.entries"), nullptr);
  EXPECT_EQ(reg.FindGauge("resultcache.entries")->value(), 1);
  EXPECT_GT(reg.FindGauge("resultcache.bytes")->value(), 0);
  ASSERT_NE(reg.FindHistogram("resultcache.lookup_micros"), nullptr);
  EXPECT_EQ(reg.FindHistogram("resultcache.lookup_micros")->count(), 2u);
}

// --- derivability: FunctionalRollUp ---------------------------------------

class ResultCacheDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("result_cache");
    config_ = TinyConfig(/*valid=*/200, /*seed=*/11);
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(config_));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_, SmallDbOptions()));
  }

  std::unique_ptr<TempFile> file_;
  gen::GenConfig config_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_F(ResultCacheDbTest, FunctionalRollUpMatchesHierarchyShape) {
  // TinyConfig dim1 has size 8 with level cardinalities {4, 2}: level-1
  // blocks of 2 members nest exactly into level-2 blocks of 4, so 1→2 is
  // functional. dim0 (size 6, {3, 2}) splits a level-1 block of 2 across two
  // level-2 blocks of 3 — not functional.
  const IndexToIndexArray& functional = db_->olap()->i2i(1);
  std::optional<std::vector<int32_t>> map = functional.FunctionalRollUp(1, 2);
  ASSERT_TRUE(map.has_value());
  ASSERT_EQ(map->size(), 4u);
  // Spot-check: the composed map equals the direct level-2 map.
  for (uint32_t b = 0; b < functional.num_members(); ++b) {
    EXPECT_EQ((*map)[functional.Map(1, b)], functional.Map(2, b));
  }

  EXPECT_FALSE(db_->olap()->i2i(0).FunctionalRollUp(1, 2).has_value());

  // Level 0 (the identity) rolls up to any level, trivially.
  EXPECT_TRUE(db_->olap()->i2i(0).FunctionalRollUp(0, 2).has_value());
  // Out-of-range levels are rejected, not UB.
  EXPECT_FALSE(functional.FunctionalRollUp(1, 9).has_value());
}

// --- engine integration: hit, derive, fallback, epoch churn ----------------

TEST_F(ResultCacheDbTest, ExactHitIsBitIdenticalAndSkipsTheEngine) {
  ConsolidationResultCache cache;
  RunQueryOptions cached;
  cached.cache = &cache;

  ConsolidationQuery q = ThreeDimQuery();
  const GroupedResult expected = BruteForce(data_, q);

  ASSERT_OK_AND_ASSIGN(Execution miss,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(miss.result.SameAs(expected));

  ASSERT_OK_AND_ASSIGN(Execution hit,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  ASSERT_TRUE(hit.result.SameAs(expected));
  // The whole point: a hit performs zero storage reads.
  EXPECT_EQ(hit.stats.io.logical_reads, 0u);

  // The hit is engine-agnostic — a different engine serves the same entry.
  ASSERT_OK_AND_ASSIGN(Execution star,
                       RunQuery(db_.get(), EngineKind::kStarJoin, q, cached));
  EXPECT_EQ(star.stats.cache_outcome, CacheOutcome::kHit);
  ASSERT_TRUE(star.result.SameAs(expected));
}

TEST_F(ResultCacheDbTest, CoarserGroupByIsDerivedFromFinerEntry) {
  ConsolidationResultCache::Options opts;
  opts.derive_row_cost = 0;  // force derivation whenever structurally possible
  ConsolidationResultCache cache(opts);
  RunQueryOptions cached;
  cached.cache = &cache;

  ConsolidationQuery fine = ThreeDimQuery();
  ASSERT_OK_AND_ASSIGN(Execution seeded,
                       RunQuery(db_.get(), EngineKind::kArray, fine, cached));
  EXPECT_EQ(seeded.stats.cache_outcome, CacheOutcome::kMiss);

  // dim1 grouped one level coarser: derivable (functional 1→2 roll-up).
  ConsolidationQuery coarse = fine;
  coarse.dims[1].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(Execution derived,
                       RunQuery(db_.get(), EngineKind::kArray, coarse, cached));
  EXPECT_EQ(derived.stats.cache_outcome, CacheOutcome::kDerived);
  EXPECT_EQ(derived.stats.cache_source_rows, seeded.result.num_groups());
  ASSERT_TRUE(derived.result.SameAs(BruteForce(data_, coarse)));
  EXPECT_EQ(cache.stats().derived_hits, 1u);

  // Collapsing a dimension entirely is also a roll-up (merge all its rows).
  ConsolidationQuery collapsed = fine;
  collapsed.dims[2].group_by_col.reset();
  ASSERT_OK_AND_ASSIGN(
      Execution merged,
      RunQuery(db_.get(), EngineKind::kArray, collapsed, cached));
  EXPECT_EQ(merged.stats.cache_outcome, CacheOutcome::kDerived);
  ASSERT_TRUE(merged.result.SameAs(BruteForce(data_, collapsed)));

  // The derived result was inserted under its own signature: exact hit now.
  ASSERT_OK_AND_ASSIGN(Execution again,
                       RunQuery(db_.get(), EngineKind::kArray, coarse, cached));
  EXPECT_EQ(again.stats.cache_outcome, CacheOutcome::kHit);
}

TEST_F(ResultCacheDbTest, NonFunctionalHierarchyFallsBackToScan) {
  ConsolidationResultCache::Options opts;
  opts.derive_row_cost = 0;
  ConsolidationResultCache cache(opts);
  RunQueryOptions cached;
  cached.cache = &cache;

  ConsolidationQuery fine = ThreeDimQuery();
  ASSERT_OK_AND_ASSIGN(Execution seeded,
                       RunQuery(db_.get(), EngineKind::kArray, fine, cached));

  // dim0's 1→2 roll-up is NOT functional in TinyConfig: the derivation
  // attempt must detect that and fall back to a correct full scan.
  ConsolidationQuery coarse = fine;
  coarse.dims[0].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kArray, coarse, cached));
  EXPECT_EQ(exec.stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(exec.result.SameAs(BruteForce(data_, coarse)));
  EXPECT_EQ(cache.stats().derived_hits, 0u);
}

TEST_F(ResultCacheDbTest, DeriveVsScanCostGate) {
  // With the default cost model a finer result of very few rows derives;
  // an absurdly high per-row cost forces the scan even when structurally
  // derivable.
  const uint64_t cells = db_->olap()->layout().total_cells();
  EXPECT_TRUE(ChoosePlan(*db_, ThreeDimQuery()).ok());  // sanity
  const DeriveDecision cheap = ChooseDeriveOrScan(*db_, 4, 4);
  EXPECT_TRUE(cheap.derive);
  EXPECT_EQ(cheap.scan_cost, cells);
  const DeriveDecision expensive = ChooseDeriveOrScan(*db_, cells, 1000);
  EXPECT_FALSE(expensive.derive);
  EXPECT_FALSE(expensive.reason.empty());
}

TEST_F(ResultCacheDbTest, CommitEpochChurnInvalidatesAcrossReload) {
  ConsolidationResultCache cache;
  RunQueryOptions cached;
  cached.cache = &cache;

  ConsolidationQuery q = ThreeDimQuery();
  ASSERT_OK_AND_ASSIGN(Execution first,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  const uint64_t epoch_before = db_->commit_epoch();

  // Mutate one cell (changing the data!) and durably commit: the manifest
  // epoch advances and the cached entry must never be served again.
  const std::vector<int32_t> keys = data_.CellKeys(data_.cell_global_indices[0]);
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> old_value,
                       db_->olap()->ReadCellByKeys(keys));
  ASSERT_TRUE(old_value.has_value());
  ASSERT_OK(db_->ingest()->Write(keys, {*old_value + 1000}));
  ASSERT_OK(db_->ingest()->Commit());
  // The commit frees the objects it superseded only after its manifest
  // lands; that free-list update rides in the next commit, which would
  // otherwise be the close below. Publish it now so the reload that
  // follows opens exactly the file this epoch names.
  ASSERT_OK(db_->storage()->Checkpoint());
  ASSERT_GT(db_->commit_epoch(), epoch_before);

  ASSERT_OK_AND_ASSIGN(Execution after,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_EQ(after.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(after.result.TotalSum(), first.result.TotalSum() + 1000);

  // A reload of the committed file keeps the same epoch — the fresh entry
  // keeps serving, which is correct because nothing changed on disk.
  db_.reset();
  ASSERT_OK_AND_ASSIGN(db_, Database::Open(file_->path(), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(Execution reloaded,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_EQ(reloaded.stats.cache_outcome, CacheOutcome::kHit);
  ASSERT_TRUE(reloaded.result.SameAs(after.result));
}

TEST_F(ResultCacheDbTest, RunPinnedBehindTheCurrentEpochKeepsTheSnapshot) {
  ConsolidationResultCache cache;
  RunQueryOptions cached;
  cached.cache = &cache;
  const ConsolidationQuery q = ThreeDimQuery();
  const CanonicalQuery canon = CanonicalQuery::From(q);
  ASSERT_OK_AND_ASSIGN(Execution first,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  const uint64_t old_epoch = db_->commit_epoch();

  const std::vector<int32_t> keys = data_.CellKeys(data_.cell_global_indices[0]);
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> old_value,
                       db_->olap()->ReadCellByKeys(keys));
  ASSERT_TRUE(old_value.has_value());
  ASSERT_OK(db_->ingest()->Write(keys, {*old_value + 1000}));
  ASSERT_OK(db_->ingest()->Commit());
  ASSERT_GT(db_->commit_epoch(), old_epoch);

  // A session pinned at the old epoch whose run pinned the newer array (a
  // commit published between its epoch check and PinArray) gets the new
  // answer without touching the cache, so the old epoch's entry still
  // serves that session's snapshot.
  RunQueryOptions pinned = cached;
  pinned.cache_pin_epoch = old_epoch;
  ASSERT_OK_AND_ASSIGN(Execution racing,
                       RunQuery(db_.get(), EngineKind::kArray, q, pinned));
  EXPECT_EQ(racing.stats.cache_outcome, CacheOutcome::kOff);
  EXPECT_EQ(racing.result.TotalSum(), first.result.TotalSum() + 1000);
  std::shared_ptr<const GroupedResult> snapshot =
      cache.Peek(db_->CacheScope(), old_epoch, canon);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->SameAs(first.result));
}

TEST_F(ResultCacheDbTest, CachedModeStillRejectsUnservableQueries) {
  // A cube without bitmap or B-tree join indexes, so both index plans can
  // be handed a selection they hold no index for.
  TempFile bare_file("result_cache_bare");
  DatabaseOptions options = SmallDbOptions();
  options.build_bitmap_indexes = false;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> bare,
      BuildDatabaseFromDataset(bare_file.path(), data_, options));

  const ConsolidationQuery plain = ThreeDimQuery();
  ConsolidationQuery selected = ThreeDimQuery();
  selected.dims[1].selections.push_back(Sel(1, {1}));
  ConsolidationQuery bad_measure = ThreeDimQuery();
  bad_measure.measure = 5;
  ConsolidationQuery bad_group = ThreeDimQuery();
  bad_group.dims[0].group_by_col = 9;

  struct Case {
    EngineKind engine;
    const ConsolidationQuery* query;
    std::string message;  // after RunQuery's "engine <name>: " context
  };
  std::vector<Case> cases = {
      {EngineKind::kBitmap, &plain,
       "bitmap algorithm requires at least one selection"},
      {EngineKind::kBTreeSelect, &plain,
       "B-tree selection plan requires at least one selection"},
      {EngineKind::kBitmap, &selected, "no bitmap index on dimension dim1 column 1"},
      {EngineKind::kBTreeSelect, &selected,
       "no B-tree join index on dimension dim1 column 1"},
  };
  for (EngineKind kind : {EngineKind::kArray, EngineKind::kStarJoin,
                          EngineKind::kBitmap, EngineKind::kLeftDeep,
                          EngineKind::kBTreeSelect}) {
    cases.push_back({kind, &bad_measure, "measure index out of range"});
    cases.push_back({kind, &bad_group, "bad group-by column 9 on dimension 0"});
  }

  ConsolidationResultCache cache;
  RunQueryOptions cached;
  cached.cache = &cache;
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(EngineKindToString(c.engine)) + ": " + c.message);
    // Seed the cache through the star join wherever it accepts the query: a
    // cache hit must not mask the engine's error.
    (void)RunQuery(bare.get(), EngineKind::kStarJoin, *c.query, cached);
    const Status uncached_st =
        RunQuery(bare.get(), c.engine, *c.query).status();
    const Status cached_st =
        RunQuery(bare.get(), c.engine, *c.query, cached).status();
    EXPECT_TRUE(uncached_st.IsInvalidArgument()) << uncached_st.ToString();
    EXPECT_EQ(uncached_st.message(), "engine " +
                                         std::string(EngineKindToString(
                                             c.engine)) +
                                         ": " + c.message);
    EXPECT_EQ(cached_st.code(), uncached_st.code());
    EXPECT_EQ(cached_st.message(), uncached_st.message());
  }
}

TEST_F(ResultCacheDbTest, ExecutionStatsJsonCarriesCacheOutcome) {
  ConsolidationResultCache cache;
  RunQueryOptions cached;
  cached.cache = &cache;
  ConsolidationQuery q = ThreeDimQuery();
  ASSERT_OK_AND_ASSIGN(Execution miss,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_NE(miss.stats.ToJson().find("\"cache\":{\"outcome\":\"miss\""),
            std::string::npos);
  ASSERT_OK_AND_ASSIGN(Execution hit,
                       RunQuery(db_.get(), EngineKind::kArray, q, cached));
  EXPECT_NE(hit.stats.ToJson().find("\"cache\":{\"outcome\":\"hit\""),
            std::string::npos);
  // Uncached runs report the outcome as off.
  ASSERT_OK_AND_ASSIGN(Execution off,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_NE(off.stats.ToJson().find("\"cache\":{\"outcome\":\"off\""),
            std::string::npos);
}

// --- concurrency (exercised under TSan in CI) ------------------------------

TEST(ResultCacheConcurrencyTest, ConcurrentLookupInsertDeriveIsRaceFree) {
  ConsolidationResultCache::Options opts;
  opts.byte_budget = 16 * 1024;  // small enough to force evictions mid-test
  ConsolidationResultCache cache(opts);
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<uint64_t> served{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &served, t] {
      for (int i = 0; i < kIters; ++i) {
        const size_t measure = static_cast<size_t>((t + i) % 6);
        const CanonicalQuery canon = TaggedQuery(measure);
        std::shared_ptr<const GroupedResult> hit =
            cache.Lookup("db", 1, canon);
        if (hit == nullptr) {
          cache.Insert("db", 1, canon, MakeResult(3 + measure, t));
        } else {
          // Read through the shared result while other threads evict.
          served.fetch_add(hit->num_groups(), std::memory_order_relaxed);
        }
        ConsolidationQuery target = ThreeDimQuery();
        target.measure = measure;
        target.dims[1].group_by_col = 2;
        cache.DerivationCandidates("db", 1, CanonicalQuery::From(target));
        if (i % 64 == 0) cache.stats();
        if (i % 128 == 127) cache.Lookup("db", 2, canon);  // invalidate path
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GT(served.load(), 0u);
}

/// The epoch-pinned regression for the ingest path (TSan job): readers
/// pinned to a historical epoch Peek while real ingest commits bump the
/// commit epoch and current-epoch Lookups storm the cache with
/// invalidations. A Peek must only ever yield a clean miss (nullptr — the
/// session layer turns that into SNAPSHOT_GONE) or a hit whose result stays
/// fully readable after the entry is concurrently dropped — never a dangling
/// pointer and never an invalidation charged to the pinned reader.
TEST(ResultCacheConcurrencyTest, PinnedPeekSurvivesIngestInvalidationStorm) {
  TempFile file("cache_peek_storm");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(40, 31)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  constexpr size_t kQueries = 4;
  ConsolidationResultCache cache;
  const std::string scope = "db";
  const uint64_t pinned = db->commit_epoch();
  for (size_t m = 0; m < kQueries; ++m) {
    cache.Insert(scope, pinned, TaggedQuery(m),
                 MakeResult(4, static_cast<int32_t>(m)));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> pinned_hits{0};
  std::atomic<uint64_t> clean_misses{0};
  std::atomic<uint64_t> served{0};

  // The storm: each ingest commit advances the epoch; current-epoch lookups
  // then drop every stale entry (including the pinned readers') and refile
  // fresh results under the new epoch.
  std::thread ingester([&] {
    for (int round = 0; round < 24; ++round) {
      const uint64_t gi = data.cell_global_indices[static_cast<size_t>(round) %
                                                   data.cell_global_indices
                                                       .size()];
      ASSERT_OK(db->ingest()->Write(data.CellKeys(gi), {round}));
      ASSERT_OK(db->ingest()->Commit());
      const uint64_t epoch = db->commit_epoch();
      for (size_t m = 0; m < kQueries; ++m) {
        cache.Lookup(scope, epoch, TaggedQuery(m));
        cache.Insert(scope, epoch, TaggedQuery(m),
                     MakeResult(4, static_cast<int32_t>(m)));
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t m = (static_cast<size_t>(t) + i++) % kQueries;
        std::shared_ptr<const GroupedResult> hit =
            cache.Peek(scope, pinned, TaggedQuery(m));
        if (hit != nullptr) {
          // Keep reading through the shared result while the storm drops
          // and replaces the entry underneath us.
          served.fetch_add(hit->num_groups(), std::memory_order_relaxed);
          pinned_hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          clean_misses.fetch_add(1, std::memory_order_relaxed);
          // A pinned session refiling its own freshly computed result.
          cache.Insert(scope, pinned, TaggedQuery(m),
                       MakeResult(4, static_cast<int32_t>(m)));
        }
      }
    });
  }
  ingester.join();
  for (std::thread& th : readers) th.join();
  EXPECT_GT(pinned_hits.load(), 0u);
  EXPECT_GT(clean_misses.load(), 0u);
  EXPECT_GT(served.load(), 0u);
}

}  // namespace
}  // namespace paradise
