// Tests for ConsolidateToOlapArray — the §4.1 contract that a
// consolidation's result is a full OLAP Array ADT instance: queryable,
// persistent, selectable, and roll-up-able along the remaining hierarchy.
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/consolidate.h"
#include "core/slice.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;

// A strictly hierarchical retail-style cube: type determines category,
// city determines region.
class RollupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("rollup");
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
    for (int32_t pid = 0; pid < 24; ++pid) {
      Tuple row(&product);
      row.SetInt32(0, pid);
      const int type = pid % 8;
      ASSERT_OK(row.SetString(1, "type" + std::to_string(type)));
      ASSERT_OK(row.SetString(2, "cat" + std::to_string(type % 3)));
      ASSERT_OK(db_->AppendDimensionRow(0, row));
    }
    for (int32_t sid = 0; sid < 12; ++sid) {
      Tuple row(&store);
      row.SetInt32(0, sid);
      const int city = sid % 6;
      ASSERT_OK(row.SetString(1, "city" + std::to_string(city)));
      ASSERT_OK(row.SetString(2, "reg" + std::to_string(city % 2)));
      ASSERT_OK(db_->AppendDimensionRow(1, row));
    }
    ASSERT_OK(db_->BeginFacts());
    Random rng(33);
    for (int32_t pid = 0; pid < 24; ++pid) {
      for (int32_t sid = 0; sid < 12; ++sid) {
        if (!rng.Bernoulli(0.5)) continue;
        ASSERT_OK(db_->AppendFact({pid, sid}, rng.UniformRange(1, 50)));
      }
    }
    ASSERT_OK(db_->FinishLoad());
  }

  Result<OlapArray> Consolidate(const std::string& name, size_t pcol,
                                size_t scol) {
    query::ConsolidationQuery q;
    q.dims.resize(2);
    q.dims[0].group_by_col = pcol;
    q.dims[1].group_by_col = scol;
    return ConsolidateToOlapArray(db_->storage(), *db_->olap(),
                                  db_->DimPointers(), q, name,
                                  ArrayOptions{});
  }

  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Database> db_;
};

TEST_F(RollupTest, ResultAdtShape) {
  ASSERT_OK_AND_ASSIGN(OlapArray result, Consolidate("by_type_city", 1, 1));
  EXPECT_EQ(result.num_dims(), 2u);
  EXPECT_EQ(result.layout().dims(), (std::vector<uint32_t>{8, 6}));
  // Result dimension schemas: key + the grouped level and coarser ones.
  EXPECT_EQ(result.dim_schema(0).num_columns(), 3u);  // pid, type, category
  EXPECT_EQ(result.dim_schema(0).column(1).name, "type");
  EXPECT_EQ(result.dim_schema(0).column(2).name, "category");
  EXPECT_EQ(result.dim_schema(1).column(2).name, "region");
}

TEST_F(RollupTest, ResultCellsAreGroupSums) {
  ASSERT_OK_AND_ASSIGN(OlapArray result, Consolidate("by_type_city2", 1, 1));
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  q.dims[1].group_by_col = 1;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                       ArrayConsolidate(*db_->olap(), q));
  for (const query::ResultRow& row : expected.rows()) {
    ASSERT_OK_AND_ASSIGN(std::optional<int64_t> cell,
                         result.ReadCellByKeys({row.group[0], row.group[1]}));
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ(*cell, row.agg.sum);
  }
  EXPECT_EQ(result.array().num_valid_cells(), expected.num_groups());
}

TEST_F(RollupTest, RollUpMatchesDirectConsolidation) {
  // Consolidate to (type, city), then roll the RESULT up to
  // (category, region): must equal consolidating the base cube directly.
  ASSERT_OK_AND_ASSIGN(OlapArray mid, Consolidate("mid_cube", 1, 1));
  query::ConsolidationQuery rollup;
  rollup.dims.resize(2);
  rollup.dims[0].group_by_col = 2;  // category (column 2 of the result dim)
  rollup.dims[1].group_by_col = 2;  // region
  ASSERT_OK_AND_ASSIGN(query::GroupedResult rolled,
                       ArrayConsolidate(mid, rollup));

  query::ConsolidationQuery direct;
  direct.dims.resize(2);
  direct.dims[0].group_by_col = 2;
  direct.dims[1].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                       ArrayConsolidate(*db_->olap(), direct));

  // Sums must agree per group; counts differ by construction (the rolled-up
  // input cells are already aggregates), so compare sums only.
  ASSERT_EQ(rolled.num_groups(), expected.num_groups());
  EXPECT_EQ(rolled.codes(), expected.codes());
  for (size_t i = 0; i < rolled.rows().size(); ++i) {
    EXPECT_EQ(rolled.rows()[i].agg.sum, expected.rows()[i].agg.sum);
  }
}

TEST_F(RollupTest, ResultSupportsSelection) {
  ASSERT_OK_AND_ASSIGN(OlapArray mid, Consolidate("sel_cube", 1, 1));
  // Select one category on the result cube.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[1].group_by_col = 1;  // city
  q.dims[0].selections.push_back(
      query::Selection{2, {query::Literal{std::string("cat1")}}});
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(mid, q));
  // Expected from the base cube with the same logical filter.
  query::ConsolidationQuery base_q;
  base_q.dims.resize(2);
  base_q.dims[1].group_by_col = 1;
  base_q.dims[0].selections.push_back(
      query::Selection{2, {query::Literal{std::string("cat1")}}});
  ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                       ArrayConsolidate(*db_->olap(), base_q));
  ASSERT_EQ(got.num_groups(), expected.num_groups());
  EXPECT_EQ(got.codes(), expected.codes());
  for (size_t i = 0; i < got.rows().size(); ++i) {
    EXPECT_EQ(got.rows()[i].agg.sum, expected.rows()[i].agg.sum);
  }
}

TEST_F(RollupTest, ResultPersistsAndReopens) {
  ASSERT_OK(Consolidate("persisted_cube", 1, 1).status());
  ASSERT_OK(db_->storage()->Checkpoint());
  ASSERT_OK(db_->DropCaches());
  ASSERT_OK_AND_ASSIGN(OlapArray reopened,
                       OlapArray::Open(db_->storage(), "persisted_cube"));
  EXPECT_EQ(reopened.layout().dims(), (std::vector<uint32_t>{8, 6}));
  query::ConsolidationQuery q;
  q.dims.resize(2);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult total, ArrayConsolidate(reopened, q));
  query::ConsolidationQuery base;
  base.dims.resize(2);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult base_total,
                       ArrayConsolidate(*db_->olap(), base));
  EXPECT_EQ(total.TotalSum(), base_total.TotalSum());
}

TEST_F(RollupTest, RejectsFullCollapse) {
  query::ConsolidationQuery q;
  q.dims.resize(2);
  EXPECT_TRUE(ConsolidateToOlapArray(db_->storage(), *db_->olap(),
                                     db_->DimPointers(), q, "bad",
                                     ArrayOptions{})
                  .status()
                  .IsInvalidArgument());
}

// The registry keys a materialized cube by its grouping alone, so a filtered
// one would be served to later unfiltered queries with partial sums.
TEST_F(RollupTest, RejectsSelection) {
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  q.dims[1].group_by_col = 1;
  q.dims[0].selections.push_back(
      query::Selection{2, {query::Literal{std::string("cat1")}}});
  EXPECT_TRUE(ConsolidateToOlapArray(db_->storage(), *db_->olap(),
                                     db_->DimPointers(), q, "filtered",
                                     ArrayOptions{})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_->MaterializeAggregate(q, "filtered", ArrayOptions{})
                  .status()
                  .IsInvalidArgument());
  // Nothing was registered, so the unfiltered query with the same grouping
  // is still answered from the base cube.
  EXPECT_FALSE(db_->storage()->HasRoot("agg.filtered"));
  q.dims[0].selections.clear();
  EXPECT_FALSE(db_->FindAggregate(q).has_value());
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_TRUE(exec.stats.aggregate.empty()) << exec.stats.aggregate;
}

}  // namespace
}  // namespace paradise
