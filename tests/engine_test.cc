// Cross-engine property tests: the OLAP Array algorithms, the star-join
// consolidation, the bitmap+fact-file plan and the left-deep baseline must
// all produce identical GroupedResults — and match the brute-force reference
// — across randomized cubes, densities and query shapes.
#include <gtest/gtest.h>

#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

struct EngineCase {
  uint64_t seed;
  uint64_t valid_cells;
  int query_kind;  // 0 = Query1, 1 = Query2, 2 = Query3(2 of 3), 3 = custom
};

std::string CaseName(const ::testing::TestParamInfo<EngineCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_cells" +
         std::to_string(info.param.valid_cells) + "_q" +
         std::to_string(info.param.query_kind);
}

query::ConsolidationQuery MakeQuery(int kind) {
  switch (kind) {
    case 0:
      return gen::Query1(3);
    case 1:
      return gen::Query2(3);
    case 2:
      return gen::Query3(3, 2);
    default: {
      // Mixed shape: group dim0 at level 2, collapse dim1 with a selection,
      // group dim2 at level 1 with a two-value selection.
      query::ConsolidationQuery q;
      q.dims.resize(3);
      q.dims[0].group_by_col = 2;
      q.dims[1].selections.push_back(
          query::Selection{1, {query::Literal{gen::AttrValue(1, 1, 1)}}});
      q.dims[2].group_by_col = 1;
      q.dims[2].selections.push_back(query::Selection{
          2,
          {query::Literal{gen::AttrValue(2, 2, 0)},
           query::Literal{gen::AttrValue(2, 2, 1)}}});
      return q;
    }
  }
}

class EngineAgreementTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineAgreementTest, AllEnginesMatchBruteForce) {
  const EngineCase& tc = GetParam();
  TempFile file("engine_case");
  gen::GenConfig config = TinyConfig(tc.valid_cells, tc.seed);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));

  const query::ConsolidationQuery q = MakeQuery(tc.query_kind);
  const query::GroupedResult expected = BruteForce(data, q);

  std::vector<EngineKind> engines = {EngineKind::kArray, EngineKind::kStarJoin,
                                     EngineKind::kLeftDeep};
  if (q.HasSelection()) engines.push_back(EngineKind::kBitmap);

  for (EngineKind kind : engines) {
    ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db.get(), kind, q));
    EXPECT_TRUE(exec.result.SameAs(expected))
        << EngineKindToString(kind) << " diverges:\ngot:\n"
        << exec.result.ToString(q.agg) << "expected:\n"
        << expected.ToString(q.agg);
    EXPECT_GE(exec.stats.seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementTest,
    ::testing::Values(EngineCase{1, 30, 0}, EngineCase{2, 30, 1},
                      EngineCase{3, 30, 2}, EngineCase{4, 30, 3},
                      EngineCase{5, 200, 0}, EngineCase{6, 200, 1},
                      EngineCase{7, 200, 2}, EngineCase{8, 200, 3},
                      EngineCase{9, 480, 0}, EngineCase{10, 480, 1},
                      EngineCase{11, 480, 2}, EngineCase{12, 480, 3},
                      // Full cube (100 % density) and near-empty cube.
                      EngineCase{13, 480, 1}, EngineCase{14, 1, 0},
                      EngineCase{15, 1, 1}),
    CaseName);

TEST(EngineTest, BitmapRequiresSelection) {
  TempFile file("engine_bitmapsel");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(), SmallDbOptions()));
  EXPECT_TRUE(RunQuery(db.get(), EngineKind::kBitmap, gen::Query1(3))
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, ColdRunsDoDiskReads) {
  TempFile file("engine_cold");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(400), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(Execution cold,
                       RunQuery(db.get(), EngineKind::kArray, gen::Query1(3)));
  EXPECT_GT(cold.stats.io.disk_reads, 0u);
  RunQueryOptions warm_options;
  warm_options.cold = false;
  ASSERT_OK_AND_ASSIGN(
      Execution warm,
      RunQuery(db.get(), EngineKind::kArray, gen::Query1(3), warm_options));
  EXPECT_EQ(warm.stats.io.disk_reads, 0u);  // everything still buffered
  EXPECT_TRUE(warm.result.SameAs(cold.result));
}

TEST(EngineTest, PhaseTimersPopulated) {
  TempFile file("engine_phases");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(300), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(Execution array,
                       RunQuery(db.get(), EngineKind::kArray, gen::Query1(3)));
  EXPECT_TRUE(array.stats.phases.phases().contains("scan+aggregate"));
  ASSERT_OK_AND_ASSIGN(
      Execution star,
      RunQuery(db.get(), EngineKind::kStarJoin, gen::Query1(3)));
  EXPECT_TRUE(star.stats.phases.phases().contains("build"));
  EXPECT_TRUE(star.stats.phases.phases().contains("scan+aggregate"));
  ASSERT_OK_AND_ASSIGN(
      Execution bitmap,
      RunQuery(db.get(), EngineKind::kBitmap, gen::Query2(3)));
  EXPECT_TRUE(bitmap.stats.phases.phases().contains("bitmaps"));
  EXPECT_TRUE(bitmap.stats.phases.phases().contains("fetch+aggregate"));
}

TEST(EngineTest, BitmapAuxCountsQualifyingTuples) {
  TempFile file("engine_bits");
  gen::GenConfig config = TinyConfig(480, 21);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query2(3);
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kBitmap, q));
  uint64_t qualifying = 0;
  for (const auto& row : BruteForce(data, q).rows()) {
    qualifying += row.agg.count;
  }
  EXPECT_EQ(exec.stats.aux, qualifying);
}

TEST(EngineTest, LeftDeepMaterializesIntermediates) {
  TempFile file("engine_leftdeep");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(300), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(
      Execution exec,
      RunQuery(db.get(), EngineKind::kLeftDeep, gen::Query1(3)));
  // Stage 0 materializes all 300 facts, then one intermediate per joined
  // dimension (no filtering in Query 1).
  EXPECT_EQ(exec.stats.aux, 300u * 4);
}

TEST(EngineTest, EngineKindNames) {
  EXPECT_EQ(EngineKindToString(EngineKind::kArray), "array");
  EXPECT_EQ(EngineKindToString(EngineKind::kStarJoin), "starjoin");
  EXPECT_EQ(EngineKindToString(EngineKind::kBitmap), "bitmap");
  EXPECT_EQ(EngineKindToString(EngineKind::kLeftDeep), "leftdeep");
}

TEST(EngineTest, AggFuncSweepAgreesAcrossEngines) {
  TempFile file("engine_aggfunc");
  gen::GenConfig config = TinyConfig(350, 31);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  for (query::AggFunc agg :
       {query::AggFunc::kSum, query::AggFunc::kCount, query::AggFunc::kMin,
        query::AggFunc::kMax, query::AggFunc::kAvg}) {
    query::ConsolidationQuery q = gen::Query1(3);
    q.agg = agg;
    ASSERT_OK_AND_ASSIGN(Execution a,
                         RunQuery(db.get(), EngineKind::kArray, q));
    ASSERT_OK_AND_ASSIGN(Execution r,
                         RunQuery(db.get(), EngineKind::kStarJoin, q));
    ASSERT_TRUE(a.result.SameAs(r.result));
    // Finalized values agree row by row.
    for (size_t i = 0; i < a.result.rows().size(); ++i) {
      EXPECT_DOUBLE_EQ(a.result.rows()[i].agg.Finalize(agg),
                       r.result.rows()[i].agg.Finalize(agg));
    }
  }
}

}  // namespace
}  // namespace paradise
