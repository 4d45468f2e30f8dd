// Multi-measure cube tests (§2's M = {m_1..m_p}): both physical designs
// store p measures per cell; every engine aggregates the measure a query
// names; SQL resolves measures by name.
#include <gtest/gtest.h>

#include "common/random.h"
#include "ingest/ingest.h"
#include "query/planner.h"
#include "query/sql.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;

class MultiMeasureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("multimeasure");
    schema_.cube_name = "sales";
    schema_.measures = {"volume", "revenue"};
    schema_.dims = {
        DimensionSpec{"product",
                      {{"pid", ColumnType::kInt32},
                       {"category", ColumnType::kString16}}},
        DimensionSpec{"store",
                      {{"sid", ColumnType::kInt32},
                       {"region", ColumnType::kString16}}},
    };
    ASSERT_OK_AND_ASSIGN(
        db_, Database::Create(file_->path(), schema_, SmallDbOptions()));
    const Schema product = schema_.dims[0].ToSchema();
    const Schema store = schema_.dims[1].ToSchema();
    for (int32_t pid = 0; pid < 8; ++pid) {
      Tuple row(&product);
      row.SetInt32(0, pid);
      ASSERT_OK(row.SetString(1, "cat" + std::to_string(pid % 3)));
      ASSERT_OK(db_->AppendDimensionRow(0, row));
    }
    for (int32_t sid = 0; sid < 6; ++sid) {
      Tuple row(&store);
      row.SetInt32(0, sid);
      ASSERT_OK(row.SetString(1, "reg" + std::to_string(sid % 2)));
      ASSERT_OK(db_->AppendDimensionRow(1, row));
    }
    ASSERT_OK(db_->BeginFacts());
    Random rng(5);
    for (int32_t pid = 0; pid < 8; ++pid) {
      for (int32_t sid = 0; sid < 6; ++sid) {
        if (!rng.Bernoulli(0.6)) continue;
        const int64_t volume = rng.UniformRange(1, 20);
        const int64_t revenue = volume * rng.UniformRange(5, 9);
        facts_.push_back({pid, sid, volume, revenue});
        ASSERT_OK(db_->AppendFact({pid, sid}, {volume, revenue}));
      }
    }
    ASSERT_OK(db_->FinishLoad());
  }

  /// Brute-force sums of measure `m` grouped by (category, region) codes.
  std::map<std::pair<int32_t, int32_t>, int64_t> Expected(size_t m) const {
    std::map<std::pair<int32_t, int32_t>, int64_t> out;
    for (const auto& f : facts_) {
      const int32_t cat = static_cast<int32_t>(f[0] % 3);
      const int32_t reg = static_cast<int32_t>(f[1] % 2);
      out[{cat, reg}] += f[2 + m];
    }
    return out;
  }

  std::unique_ptr<TempFile> file_;
  StarSchema schema_;
  std::unique_ptr<Database> db_;
  std::vector<std::array<int64_t, 4>> facts_;  // pid, sid, volume, revenue
};

TEST_F(MultiMeasureTest, SchemaShape) {
  EXPECT_EQ(db_->fact_schema().num_columns(), 4u);  // 2 keys + 2 measures
  EXPECT_EQ(db_->fact_schema().record_size(), 2 * 4 + 2 * 8u);
  EXPECT_EQ(db_->olap()->num_measures(), 2u);
  ASSERT_OK_AND_ASSIGN(size_t idx, schema_.MeasureIndex("revenue"));
  EXPECT_EQ(idx, 1u);
  EXPECT_TRUE(schema_.MeasureIndex("nope").status().IsNotFound());
}

TEST_F(MultiMeasureTest, EveryEngineAggregatesTheNamedMeasure) {
  // Codes: cat codes follow first appearance (pid order: cat0,cat1,cat2),
  // reg codes likewise — matching our % formulas directly.
  for (size_t m = 0; m < 2; ++m) {
    query::ConsolidationQuery q;
    q.dims.resize(2);
    q.dims[0].group_by_col = 1;
    q.dims[1].group_by_col = 1;
    q.measure = m;
    const auto expected = Expected(m);
    for (EngineKind kind : {EngineKind::kArray, EngineKind::kStarJoin,
                            EngineKind::kLeftDeep}) {
      ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db_.get(), kind, q));
      ASSERT_EQ(exec.result.num_groups(), expected.size())
          << EngineKindToString(kind) << " measure " << m;
      for (const query::ResultRow& row : exec.result.rows()) {
        const auto it = expected.find({row.group[0], row.group[1]});
        ASSERT_NE(it, expected.end());
        EXPECT_EQ(row.agg.sum, it->second)
            << EngineKindToString(kind) << " measure " << m;
      }
    }
  }
}

TEST_F(MultiMeasureTest, MeasuresDiffer) {
  // Sanity: the two measures genuinely produce different totals.
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.measure = 0;
  ASSERT_OK_AND_ASSIGN(Execution volume,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  q.measure = 1;
  ASSERT_OK_AND_ASSIGN(Execution revenue,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  EXPECT_GT(revenue.result.rows()[0].agg.sum,
            volume.result.rows()[0].agg.sum);
}

TEST_F(MultiMeasureTest, SelectionEnginesHonorMeasure) {
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.dims[0].group_by_col = 1;
  q.dims[1].selections.push_back(
      query::Selection{1, {query::Literal{std::string("reg1")}}});
  q.measure = 1;
  ASSERT_OK_AND_ASSIGN(Execution array,
                       RunQuery(db_.get(), EngineKind::kArray, q));
  ASSERT_OK_AND_ASSIGN(Execution bitmap,
                       RunQuery(db_.get(), EngineKind::kBitmap, q));
  EXPECT_TRUE(array.result.SameAs(bitmap.result));
  int64_t expected = 0;
  for (const auto& f : facts_) {
    if (f[1] % 2 == 1) expected += f[3];
  }
  EXPECT_EQ(array.result.TotalSum(), expected);
}

TEST_F(MultiMeasureTest, SqlResolvesMeasureByName) {
  ASSERT_OK_AND_ASSIGN(
      SqlExecution volume,
      RunSql(db_.get(), "select sum(volume) from sales"));
  ASSERT_OK_AND_ASSIGN(
      SqlExecution revenue,
      RunSql(db_.get(), "select sum(revenue) from sales"));
  int64_t expected_volume = 0, expected_revenue = 0;
  for (const auto& f : facts_) {
    expected_volume += f[2];
    expected_revenue += f[3];
  }
  EXPECT_EQ(volume.execution.result.TotalSum(), expected_volume);
  EXPECT_EQ(revenue.execution.result.TotalSum(), expected_revenue);
  EXPECT_TRUE(RunSql(db_.get(), "select sum(profit) from sales")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(MultiMeasureTest, AdtCellFunctionsPerMeasure) {
  const std::vector<int32_t> keys = {facts_[0][0] < 8 ? (int32_t)facts_[0][0]
                                                      : 0,
                                     (int32_t)facts_[0][1]};
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> volume,
                       db_->olap()->ReadCellByKeys(keys, 0));
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> revenue,
                       db_->olap()->ReadCellByKeys(keys, 1));
  ASSERT_TRUE(volume.has_value());
  ASSERT_TRUE(revenue.has_value());
  EXPECT_EQ(*volume, facts_[0][2]);
  EXPECT_EQ(*revenue, facts_[0][3]);
  // Write revenue through ingest, carrying volume over unchanged.
  ASSERT_OK(db_->ingest()->Write(keys, {*volume, 999}));
  ASSERT_OK(db_->ingest()->Commit());
  ASSERT_OK_AND_ASSIGN(revenue, db_->olap()->ReadCellByKeys(keys, 1));
  EXPECT_EQ(*revenue, 999);
  ASSERT_OK_AND_ASSIGN(volume, db_->olap()->ReadCellByKeys(keys, 0));
  EXPECT_EQ(*volume, facts_[0][2]);
  EXPECT_TRUE(
      db_->olap()->ReadCellByKeys(keys, 5).status().IsInvalidArgument());
}

TEST_F(MultiMeasureTest, SurvivesReopen) {
  ASSERT_OK(db_->storage()->Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> reopened,
                       Database::Open(file_->path(), SmallDbOptions()));
  EXPECT_EQ(reopened->schema().measures,
            (std::vector<std::string>{"volume", "revenue"}));
  EXPECT_EQ(reopened->olap()->num_measures(), 2u);
  query::ConsolidationQuery q;
  q.dims.resize(2);
  q.measure = 1;
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(reopened.get(), EngineKind::kArray, q));
  int64_t expected = 0;
  for (const auto& f : facts_) expected += f[3];
  EXPECT_EQ(exec.result.TotalSum(), expected);
}

TEST_F(MultiMeasureTest, AppendFactValidatesMeasureArity) {
  TempFile file2("mm_arity");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db2,
      Database::Create(file2.path(), schema_, SmallDbOptions()));
  const Schema product = schema_.dims[0].ToSchema();
  const Schema store = schema_.dims[1].ToSchema();
  Tuple p(&product);
  p.SetInt32(0, 0);
  ASSERT_OK(p.SetString(1, "c"));
  ASSERT_OK(db2->AppendDimensionRow(0, p));
  Tuple s(&store);
  s.SetInt32(0, 0);
  ASSERT_OK(s.SetString(1, "r"));
  ASSERT_OK(db2->AppendDimensionRow(1, s));
  ASSERT_OK(db2->BeginFacts());
  EXPECT_TRUE(db2->AppendFact({0, 0}, {1}).IsInvalidArgument());
  EXPECT_TRUE(db2->AppendFact({0, 0}, {1, 2, 3}).IsInvalidArgument());
  ASSERT_OK(db2->AppendFact({0, 0}, {1, 2}));
}

}  // namespace
}  // namespace paradise
