// Aggregate-registry tests: provenance persistence, the rewrite rules, and
// transparent answering of derivable queries from materialized aggregates.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/aggregate_registry.h"
#include "core/consolidate.h"
#include "ingest/ingest.h"
#include "query/planner.h"
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
    ASSERT_OK(ConsolidateToOlapArray(db_->storage(), *db_->olap(),
                                     db_->DimPointers(), q, "by_type_city",
                                     ArrayOptions{})
                  .status());
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
  ASSERT_OK_AND_ASSIGN(std::vector<AggregateProvenance> all,
                       ListAggregates(db_->storage()));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "by_type_city");
  EXPECT_EQ(all[0].base_cube, "sales");
  ASSERT_EQ(all[0].grouped.size(), 2u);
  EXPECT_EQ(all[0].grouped[0].level_col, 1u);
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
    std::string used;
    ASSERT_OK_AND_ASSIGN(
        std::optional<query::GroupedResult> from_agg,
        AnswerFromAggregates(db_->storage(), "sales", q, &used));
    ASSERT_TRUE(from_agg.has_value());
    EXPECT_EQ(used, "by_type_city");
    Result<query::GroupedResult> direct = ArrayConsolidate(*db_->olap(), q);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(from_agg->num_groups(), direct->num_groups());
    for (size_t i = 0; i < direct->rows().size(); ++i) {
      EXPECT_EQ(from_agg->rows()[i].group, direct->rows()[i].group);
      EXPECT_EQ(from_agg->rows()[i].agg.sum, direct->rows()[i].agg.sum);
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
  ASSERT_OK_AND_ASSIGN(std::optional<query::GroupedResult> r,
                       AnswerFromAggregates(db_->storage(), "sales", q));
  EXPECT_FALSE(r.has_value());
  // Unknown base cube.
  ASSERT_OK_AND_ASSIGN(r, AnswerFromAggregates(db_->storage(), "ghost",
                                               gen::Query1(2)));
  EXPECT_FALSE(r.has_value());
}

TEST_F(AggregateRegistryTest, SmallestApplicableAggregateWins) {
  // Materialize a second, coarser aggregate on one dimension only.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;  // category only
  ASSERT_OK(ConsolidateToOlapArray(db_->storage(), *db_->olap(),
                                   db_->DimPointers(), q, "by_category",
                                   ArrayOptions{})
                .status());
  std::string used;
  ASSERT_OK_AND_ASSIGN(std::optional<query::GroupedResult> r,
                       AnswerFromAggregates(db_->storage(), "sales", q, &used));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(used, "by_category");  // fewer dimensions than by_type_city
}

TEST_F(AggregateRegistryTest, RunSqlRoutesThroughAggregate) {
  ASSERT_OK_AND_ASSIGN(
      SqlExecution exec,
      RunSql(db_.get(),
             "select sum(volume), product.category from sales "
             "group by product.category"));
  EXPECT_EQ(exec.plan.aggregate, "by_type_city");
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
  EXPECT_TRUE(fallback.plan.aggregate.empty());

  // Turning the feature off also falls back.
  PlannerOptions no_agg;
  no_agg.use_materialized_aggregates = false;
  ASSERT_OK_AND_ASSIGN(
      SqlExecution off,
      RunSql(db_.get(),
             "select sum(volume), product.category from sales "
             "group by product.category",
             /*cold=*/true, no_agg));
  EXPECT_TRUE(off.plan.aggregate.empty());
  EXPECT_EQ(off.execution.result.TotalSum(), direct.TotalSum());
}

TEST_F(AggregateRegistryTest, RegistryPersistsAcrossReopen) {
  ASSERT_OK(db_->storage()->Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> reopened,
                       Database::Open(file_->path(), SmallDbOptions()));
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;
  q.dims[1].group_by_col = 2;
  std::string used;
  ASSERT_OK_AND_ASSIGN(
      std::optional<query::GroupedResult> r,
      AnswerFromAggregates(reopened->storage(), "sales", q, &used));
  ASSERT_TRUE(r.has_value());
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*reopened->olap(), q));
  EXPECT_EQ(r->TotalSum(), direct.TotalSum());
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
  EXPECT_TRUE(exec.plan.aggregate.empty()) << exec.plan.aggregate;
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(Execution array,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_GE(array.result.TotalSum(), 100000);
  EXPECT_EQ(exec.execution.result.TotalSum(), array.result.TotalSum());
  ASSERT_EQ(exec.execution.result.num_groups(), array.result.num_groups());
  for (size_t i = 0; i < array.result.rows().size(); ++i) {
    EXPECT_EQ(exec.execution.result.rows()[i].agg.sum,
              array.result.rows()[i].agg.sum);
  }
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
  EXPECT_TRUE(exec.plan.aggregate.empty()) << exec.plan.aggregate;
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(Execution star,
                       RunQuery(db_.get(), EngineKind::kStarJoin, q));
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
  ASSERT_OK_AND_ASSIGN(std::optional<query::GroupedResult> r,
                       AnswerFromAggregates(db_->storage(), "sales", selected));
  EXPECT_FALSE(r.has_value());

  // The stored level, or a coarser one reached through a functional
  // hierarchy (city -> region), still rewrites.
  query::ConsolidationQuery stored;
  stored.dims.resize(2);
  stored.dims[0].group_by_col = 1;
  stored.dims[1].group_by_col = 2;
  std::string used;
  ASSERT_OK_AND_ASSIGN(
      r, AnswerFromAggregates(db_->storage(), "sales", stored, &used));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(used, "by_type_city");
  ASSERT_OK_AND_ASSIGN(query::GroupedResult direct,
                       ArrayConsolidate(*db_->olap(), stored));
  ASSERT_EQ(r->num_groups(), direct.num_groups());
  for (size_t i = 0; i < direct.rows().size(); ++i) {
    EXPECT_EQ(r->rows()[i].group, direct.rows()[i].group);
    EXPECT_EQ(r->rows()[i].agg.sum, direct.rows()[i].agg.sum);
  }
}

}  // namespace
}  // namespace paradise
