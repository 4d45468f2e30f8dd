// Aggregate-registry tests: provenance persistence, the rewrite rules, and
// transparent answering of derivable queries from materialized aggregates
// inside RunQuery's array arm, under RunQuery's contract (spans,
// cancellation, result cache, ingest gate).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>

#include "common/random.h"
#include "core/aggregate_registry.h"
#include "core/consolidate.h"
#include "ingest/ingest.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;

// Strictly hierarchical 2-d cube (same setup as rollup_test).
class AggregateRegistryTest : public ::testing::Test {
 protected:
  // Product `pid`'s category: here a function of its type (pid % 5).
  virtual int Category(int32_t pid) const { return pid % 5 % 2; }

  void SetUp() override {
    file_ = std::make_unique<TempFile>("aggreg");
    StarSchema schema;
    schema.cube_name = "sales";
    schema.dims = {
        DimensionSpec{"product",
                      {{"pid", ColumnType::kInt32},
                       {"type", ColumnType::kString16},
                       {"category", ColumnType::kString16}}},
        DimensionSpec{"store",
                      {{"sid", ColumnType::kInt32},
                       {"city", ColumnType::kString16},
                       {"region", ColumnType::kString16}}},
    };
    ASSERT_OK_AND_ASSIGN(
        db_, Database::Create(file_->path(), schema, SmallDbOptions()));
    const Schema product = schema.dims[0].ToSchema();
    const Schema store = schema.dims[1].ToSchema();
    for (int32_t pid = 0; pid < 20; ++pid) {
      Tuple row(&product);
      row.SetInt32(0, pid);
      ASSERT_OK(row.SetString(1, "type" + std::to_string(pid % 5)));
      ASSERT_OK(row.SetString(2, "cat" + std::to_string(Category(pid))));
      ASSERT_OK(db_->AppendDimensionRow(0, row));
    }
    for (int32_t sid = 0; sid < 10; ++sid) {
      Tuple row(&store);
      row.SetInt32(0, sid);
      const int city = sid % 4;
      ASSERT_OK(row.SetString(1, "city" + std::to_string(city)));
      ASSERT_OK(row.SetString(2, "reg" + std::to_string(city % 2)));
      ASSERT_OK(db_->AppendDimensionRow(1, row));
    }
    ASSERT_OK(db_->BeginFacts());
    Random rng(44);
    for (int32_t pid = 0; pid < 20; ++pid) {
      for (int32_t sid = 0; sid < 10; ++sid) {
        if (!rng.Bernoulli(0.6)) continue;
        ASSERT_OK(db_->AppendFact({pid, sid}, rng.UniformRange(1, 30)));
      }
    }
    ASSERT_OK(db_->FinishLoad());

    // Materialize the (type, city) consolidation; this registers it.
    query::ConsolidationQuery q;
    q.dims.resize(2);
    q.dims[0].group_by_col = 1;
    q.dims[1].group_by_col = 1;
    ASSERT_OK(db_->MaterializeAggregate(q, "by_type_city", ArrayOptions{})
                  .status());
  }

  // SUM of the volume grouped by product category: derivable from
  // by_type_city.
  static query::ConsolidationQuery CategoryRollUp(
      query::AggFunc agg = query::AggFunc::kSum) {
    query::ConsolidationQuery q;
    q.dims.resize(2);
    q.dims[0].group_by_col = 2;
    q.agg = agg;
    return q;
  }

  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Database> db_;
};

TEST_F(AggregateRegistryTest, ProvenanceRoundTrip) {
  AggregateProvenance p;
  p.name = "x";
  p.base_cube = "sales";
  p.measure = 3;
  p.grouped = {{0, 1}, {2, 2}};
  ASSERT_OK_AND_ASSIGN(AggregateProvenance back,
                       AggregateProvenance::Deserialize(p.Serialize()));
  EXPECT_EQ(back.name, "x");
  EXPECT_EQ(back.base_cube, "sales");
  EXPECT_EQ(back.measure, 3u);
  ASSERT_EQ(back.grouped.size(), 2u);
  EXPECT_EQ(back.grouped[1].base_dim, 2u);
  EXPECT_EQ(back.grouped[1].level_col, 2u);
}

TEST_F(AggregateRegistryTest, MaterializationRegisters) {
  ASSERT_OK_AND_ASSIGN(AggregateMap all,
                       OpenAggregates(db_->storage(), "sales"));
  ASSERT_EQ(all.size(), 1u);
  const RegisteredAggregate& agg = *all.at("by_type_city");
  EXPECT_EQ(agg.provenance.name, "by_type_city");
  EXPECT_EQ(agg.provenance.base_cube, "sales");
  ASSERT_EQ(agg.provenance.grouped.size(), 2u);
  EXPECT_EQ(agg.provenance.grouped[0].level_col, 1u);
  EXPECT_EQ(agg.cube.layout().dims(), (std::vector<uint32_t>{5, 4}));
}

TEST_F(AggregateRegistryTest, RewriteRules) {
  AggregateProvenance agg;
  agg.name = "a";
  agg.base_cube = "cube";
  agg.grouped = {{0, 1}, {1, 1}};

  // Coarser grouping rewrites: base level 2 -> result column 2.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;
  auto r = RewriteForAggregate(q, agg, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dims[0].group_by_col, 2u);
  EXPECT_FALSE(r->dims[1].group_by_col.has_value());

  // Same-level grouping rewrites to column 1.
  q.dims[0].group_by_col = 1;
  r = RewriteForAggregate(q, agg, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dims[0].group_by_col, 1u);

  // Non-SUM aggregates are not derivable.
  q.agg = query::AggFunc::kCount;
  EXPECT_FALSE(RewriteForAggregate(q, agg, 2).has_value());
  q.agg = query::AggFunc::kSum;

  // A different measure is not derivable.
  q.measure = 1;
  EXPECT_FALSE(RewriteForAggregate(q, agg, 2).has_value());
  q.measure = 0;

  // Selections rewrite with the same level shift.
  q.dims[1].selections.push_back(
      query::Selection{2, {query::Literal{std::string("reg0")}}});
  r = RewriteForAggregate(q, agg, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dims[1].selections[0].attr_col, 2u);

  // An aggregate grouped at a coarser level cannot answer finer queries.
  AggregateProvenance coarse = agg;
  coarse.grouped[0].level_col = 2;
  q = {};
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  EXPECT_FALSE(RewriteForAggregate(q, coarse, 2).has_value());

  // A collapsed dimension cannot be grouped or selected.
  AggregateProvenance partial;
  partial.base_cube = "cube";
  partial.grouped = {{0, 1}};
  q = {};
  q.dims.resize(2);
  q.dims[1].group_by_col = 1;
  EXPECT_FALSE(RewriteForAggregate(q, partial, 2).has_value());
  q = {};
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  EXPECT_TRUE(RewriteForAggregate(q, partial, 2).has_value());
}

TEST_F(AggregateRegistryTest, AnswersMatchBaseCube) {
  // Every derivable query must produce exactly the base cube's answer.
  std::vector<query::ConsolidationQuery> queries;
  {
    query::ConsolidationQuery q;  // group both at the stored level
    q.dims.resize(2);
    q.dims[0].group_by_col = 1;
    q.dims[1].group_by_col = 1;
    queries.push_back(q);
    q.dims[0].group_by_col = 2;  // coarser on one side
    queries.push_back(q);
    q.dims[1].group_by_col = 2;  // coarser on both
    queries.push_back(q);
    query::ConsolidationQuery sel;  // selection at a rewritable level
    sel.dims.resize(2);
    sel.dims[0].group_by_col = 2;
    sel.dims[1].selections.push_back(
        query::Selection{2, {query::Literal{std::string("reg1")}}});
    queries.push_back(sel);
  }
  for (const query::ConsolidationQuery& q : queries) {
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db_.get(), EngineKind::kArray, q));
    EXPECT_EQ(exec.stats.aggregate, "by_type_city");
    const query::GroupedResult& from_agg = exec.result;
    Result<query::GroupedResult> direct = ArrayConsolidate(*db_->olap(), q);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(from_agg.num_groups(), direct->num_groups());
    EXPECT_EQ(from_agg.codes(), direct->codes());
    for (size_t i = 0; i < direct->rows().size(); ++i) {
      EXPECT_EQ(from_agg.rows()[i].agg.sum, direct->rows()[i].agg.sum);
    }
  }
}

TEST_F(AggregateRegistryTest, NonDerivableFallsThrough) {
  // Grouping at the key level is finer than the stored level.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  q.dims[1].group_by_col = 1;
  q.agg = query::AggFunc::kMin;  // not derivable from sums
  EXPECT_FALSE(db_->FindAggregate(q).has_value());
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_TRUE(exec.stats.aggregate.empty()) << exec.stats.aggregate;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_TRUE(exec.result.SameAs(direct));

  // An aggregate registered for another base cube is neither opened (its
  // cube does not exist) nor chosen, though it would rank first here.
  ASSERT_OK(RegisterAggregate(db_->storage(), "a_ghost", "ghost",
                              CategoryRollUp())
                .status());
  ASSERT_OK(db_->storage()->Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> reopened,
                       Database::Open(file_->path(), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(exec, RunQuery(reopened.get(), EngineKind::kArray,
                                      CategoryRollUp()));
  EXPECT_EQ(exec.stats.aggregate, "by_type_city");
}

TEST_F(AggregateRegistryTest, SmallestApplicableAggregateWins) {
  // Materialize a second, coarser aggregate on one dimension only.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;  // category only
  ASSERT_OK(
      db_->MaterializeAggregate(q, "by_category", ArrayOptions{}).status());
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_EQ(exec.stats.aggregate, "by_category");  // fewer dimensions
  ASSERT_OK_AND_ASSIGN(PlanChoice plan, ChoosePlan(*db_, q));
  EXPECT_EQ(plan.engine, EngineKind::kArray);
  EXPECT_NE(plan.reason.find("'by_category'"), std::string::npos)
      << plan.reason;
}

TEST_F(AggregateRegistryTest, RunSqlRoutesThroughAggregate) {
  ASSERT_OK_AND_ASSIGN(
      SqlExecution exec,
      RunSql(db_.get(),
             "select sum(volume), product.category from sales "
             "group by product.category"));
  EXPECT_EQ(exec.execution.stats.aggregate, "by_type_city");
  EXPECT_NE(exec.plan.reason.find("'by_type_city'"), std::string::npos)
      << exec.plan.reason;
  query::ConsolidationQuery direct_q;
  direct_q.dims.resize(2);
  direct_q.dims[0].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*db_->olap(), direct_q));
  EXPECT_EQ(exec.execution.result.TotalSum(), direct.TotalSum());

  // COUNT cannot be derived from sums: must fall back to the base cube.
  ASSERT_OK_AND_ASSIGN(
      SqlExecution fallback,
      RunSql(db_.get(),
             "select count(volume), product.category from sales "
             "group by product.category"));
  EXPECT_TRUE(fallback.execution.stats.aggregate.empty());
}

TEST_F(AggregateRegistryTest, RegistryPersistsAcrossReopen) {
  ASSERT_OK(db_->storage()->Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> reopened,
                       Database::Open(file_->path(), SmallDbOptions()));
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;
  q.dims[1].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(reopened.get(), EngineKind::kArray, q));
  EXPECT_EQ(exec.stats.aggregate, "by_type_city");
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*reopened->olap(), q));
  EXPECT_EQ(exec.result.TotalSum(), direct.TotalSum());
}

TEST_F(AggregateRegistryTest, IngestCommitBypassesStaleAggregate) {
  // Ingest maintains the base array only; the materialized aggregate still
  // holds the pre-commit sums.
  ASSERT_OK(db_->ingest()->Write({0, 0}, {100000}));
  ASSERT_OK(db_->ingest()->Commit());
  ASSERT_OK_AND_ASSIGN(
      SqlExecution exec,
      RunSql(db_.get(),
             "select sum(volume), product.category from sales "
             "group by product.category"));
  EXPECT_TRUE(exec.execution.stats.aggregate.empty())
      << exec.execution.stats.aggregate;
  EXPECT_FALSE(db_->FindAggregate(CategoryRollUp()).has_value());
  ASSERT_OK_AND_ASSIGN(query::GroupedResult array,
                       ArrayConsolidate(*db_->olap(), CategoryRollUp()));
  EXPECT_GE(array.TotalSum(), 100000);
  EXPECT_EQ(exec.execution.result.TotalSum(), array.TotalSum());
  ASSERT_EQ(exec.execution.result.num_groups(), array.num_groups());
  for (size_t i = 0; i < array.rows().size(); ++i) {
    EXPECT_EQ(exec.execution.result.rows()[i].agg.sum, array.rows()[i].agg.sum);
  }
}

// An aggregate answers under RunQuery's contract like any other array run.
TEST_F(AggregateRegistryTest, ArrayArmAnswersUnderTheQueryContract) {
  RunQueryOptions options;
  options.trace = true;
  ASSERT_OK_AND_ASSIGN(
      Execution exec,
      RunQuery(db_.get(), EngineKind::kArray, CategoryRollUp(), options));
  EXPECT_EQ(exec.stats.aggregate, "by_type_city");
  EXPECT_NE(exec.stats.ToJson().find("\"aggregate\":\"by_type_city\""),
            std::string::npos);
  EXPECT_NE(exec.stats.kernel_isa, "none");
  EXPECT_GT(exec.stats.aux, 0u);
  // The cold drop, then the executor's spans; the aggregate's chunks come
  // from disk.
  for (const char* span : {"drop-caches", "prepare", "scan+aggregate",
                           "emit"}) {
    EXPECT_TRUE(exec.stats.phases.phases().contains(span)) << span;
  }
  EXPECT_GT(exec.stats.io.disk_reads, 0u);

  CancellationToken fired;
  fired.RequestCancel();
  options.cancel = &fired;
  Result<Execution> cancelled =
      RunQuery(db_.get(), EngineKind::kArray, CategoryRollUp(), options);
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();
}

// The aggregate holds sums only and the cache signature ignores the
// aggregate function, so a cached SUM would answer a later COUNT wrongly.
TEST_F(AggregateRegistryTest, AggregateAnswerIsNotCached) {
  query::ConsolidationResultCache cache;
  RunQueryOptions options;
  options.cache = &cache;
  ASSERT_OK_AND_ASSIGN(
      Execution sum,
      RunQuery(db_.get(), EngineKind::kArray, CategoryRollUp(), options));
  EXPECT_EQ(sum.stats.aggregate, "by_type_city");
  EXPECT_EQ(sum.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.Peek(db_->CacheScope(), db_->commit_epoch(),
                       query::CanonicalQuery::From(CategoryRollUp())),
            nullptr);

  const query::ConsolidationQuery count =
      CategoryRollUp(query::AggFunc::kCount);
  ASSERT_OK_AND_ASSIGN(Execution cached,
                       RunQuery(db_.get(), EngineKind::kArray, count, options));
  EXPECT_TRUE(cached.stats.aggregate.empty()) << cached.stats.aggregate;
  ASSERT_OK_AND_ASSIGN(Execution star,
                       RunQuery(db_.get(), EngineKind::kStarJoin, count));
  EXPECT_TRUE(cached.result.SameAs(star.result));
  EXPECT_EQ(cache.stats().insertions, 1u);
}

// One thread runs the roll-up while another makes the first ingest commit:
// every answer is the data at one side of the commit, and a query that
// starts after Commit() returns sees the commit.
TEST_F(AggregateRegistryTest, FirstCommitRacesAggregateAnswers) {
  using Sums = std::vector<std::pair<std::vector<int32_t>, int64_t>>;
  auto sums = [](const query::GroupedResult& r) {
    Sums out;
    for (const query::ResultRow& row : r.rows()) {
      out.emplace_back(
          std::vector<int32_t>(row.group.begin(), row.group.end()),
          row.agg.sum);
    }
    return out;
  };
  const query::ConsolidationQuery q = CategoryRollUp();
  ASSERT_OK_AND_ASSIGN(Execution pre_star,
                       RunQuery(db_.get(), EngineKind::kStarJoin, q));
  const Sums pre = sums(pre_star.result);

  constexpr size_t kAnswersEachSide = 40;
  std::atomic<size_t> answers{0};
  std::atomic<bool> committed{false};
  std::thread writer([&] {
    EXPECT_OK(db_->ingest()->Write({0, 0}, {100000}));
    while (answers.load() < kAnswersEachSide) std::this_thread::yield();
    EXPECT_OK(db_->ingest()->Commit());
    committed.store(true);
  });
  RunQueryOptions warm;
  warm.cold = false;
  std::vector<Sums> before_commit_returned;
  std::vector<Sums> after_commit_returned;
  size_t from_aggregate = 0;
  while (after_commit_returned.size() < kAnswersEachSide) {
    const bool started_after = committed.load();
    // No ASSERT here: returning early would strand the writer.
    Result<Execution> r = RunQuery(db_.get(), EngineKind::kArray, q, warm);
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok()) break;
    if (!r->stats.aggregate.empty()) ++from_aggregate;
    (started_after ? after_commit_returned : before_commit_returned)
        .push_back(sums(r->result));
    ++answers;
  }
  writer.join();
  ASSERT_OK_AND_ASSIGN(query::GroupedResult post_array,
                       ArrayConsolidate(*db_->olap(), q));
  const Sums post = sums(post_array);
  ASSERT_NE(pre, post);
  EXPECT_GE(from_aggregate, kAnswersEachSide);
  for (const Sums& got : before_commit_returned) {
    EXPECT_TRUE(got == pre || got == post);
  }
  for (const Sums& got : after_commit_returned) EXPECT_EQ(got, post);
}

// category = pid % 2 is not a function of type = pid % 5, so the
// (type, city) aggregate cannot tell which category a type's sums belong to.
class AggregateRegistryNonFunctionalTest : public AggregateRegistryTest {
 protected:
  int Category(int32_t pid) const override { return pid % 2; }
};

TEST_F(AggregateRegistryNonFunctionalTest, CoarserColumnIsNotRewritten) {
  ASSERT_OK_AND_ASSIGN(
      SqlExecution exec,
      RunSql(db_.get(),
             "select sum(volume), product.category from sales "
             "group by product.category"));
  EXPECT_TRUE(exec.execution.stats.aggregate.empty())
      << exec.execution.stats.aggregate;
  ASSERT_OK_AND_ASSIGN(
      Execution star,
      RunQuery(db_.get(), EngineKind::kStarJoin, CategoryRollUp()));
  ASSERT_EQ(exec.execution.result.num_groups(), star.result.num_groups());
  for (size_t i = 0; i < star.result.rows().size(); ++i) {
    EXPECT_EQ(exec.execution.result.rows()[i].agg.sum,
              star.result.rows()[i].agg.sum);
  }

  // A selection on the category is refused the same way.
  query::ConsolidationQuery selected;
  selected.dims.resize(2);
  selected.dims[1].group_by_col = 1;
  selected.dims[0].selections.push_back(
      query::Selection{2, {query::Literal{std::string("cat1")}}});
  ASSERT_OK_AND_ASSIGN(Execution r,
                       RunQuery(db_.get(), EngineKind::kArray, selected));
  EXPECT_TRUE(r.stats.aggregate.empty()) << r.stats.aggregate;

  // The stored level, or a coarser one reached through a functional
  // hierarchy (city -> region), still rewrites.
  query::ConsolidationQuery stored;
  stored.dims.resize(2);
  stored.dims[0].group_by_col = 1;
  stored.dims[1].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(r, RunQuery(db_.get(), EngineKind::kArray, stored));
  EXPECT_EQ(r.stats.aggregate, "by_type_city");
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*db_->olap(), stored));
  ASSERT_EQ(r.result.num_groups(), direct.num_groups());
  EXPECT_EQ(r.result.codes(), direct.codes());
  for (size_t i = 0; i < direct.rows().size(); ++i) {
    EXPECT_EQ(r.result.rows()[i].agg.sum, direct.rows()[i].agg.sum);
  }
}

}  // namespace
}  // namespace paradise
