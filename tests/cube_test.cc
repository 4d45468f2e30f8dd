// CUBE operator tests: every cuboid must equal the corresponding single
// consolidation, across cubes and levels (parameterized); and the
// position-based RollUp both the lattice and the result cache's derivation
// run through, against a brute-force regroup and its range guards.
#include <bit>
#include <map>

#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/consolidate.h"
#include "core/cube.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

class CubeTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("cube");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig(350, 71)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_,
                                      SmallDbOptions()));
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_P(CubeTest, EveryCuboidMatchesItsConsolidation) {
  const size_t level = GetParam();
  CubeQuery cube;
  cube.level_cols.assign(3, level);
  CubeStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<Cuboid> cuboids,
                       ArrayCube(*db_->olap(), cube, nullptr, &stats));
  ASSERT_EQ(cuboids.size(), 8u);  // 2^3
  EXPECT_GT(stats.chunks_read, 0u);

  std::set<uint32_t> masks_seen;
  for (const Cuboid& cuboid : cuboids) {
    masks_seen.insert(cuboid.mask);
    query::ConsolidationQuery q;
    q.dims.resize(3);
    for (size_t d = 0; d < 3; ++d) {
      if ((cuboid.mask >> d) & 1) q.dims[d].group_by_col = level;
    }
    ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                         ArrayConsolidate(*db_->olap(), q));
    EXPECT_TRUE(cuboid.result.SameAs(expected))
        << "mask " << cuboid.mask << ":\ngot:\n"
        << cuboid.result.ToString(cube.agg) << "expected:\n"
        << expected.ToString(cube.agg);
  }
  EXPECT_EQ(masks_seen.size(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Levels, CubeTest, ::testing::Values(1, 2));

TEST(CubeTestStandalone, MixedLevelsPerDimension) {
  TempFile file("cube_mixed");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(200, 72)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  CubeQuery cube;
  cube.level_cols = {1, 2, 1};
  ASSERT_OK_AND_ASSIGN(std::vector<Cuboid> cuboids,
                       ArrayCube(*db->olap(), cube));
  for (const Cuboid& cuboid : cuboids) {
    query::ConsolidationQuery q;
    q.dims.resize(3);
    for (size_t d = 0; d < 3; ++d) {
      if ((cuboid.mask >> d) & 1) q.dims[d].group_by_col = cube.level_cols[d];
    }
    ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                         ArrayConsolidate(*db->olap(), q));
    EXPECT_TRUE(cuboid.result.SameAs(expected)) << "mask " << cuboid.mask;
  }
}

TEST(CubeTestStandalone, OrderIsFinestFirstAndGrandTotalLast) {
  TempFile file("cube_order");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(100), SmallDbOptions()));
  CubeQuery cube;
  cube.level_cols = {1, 1, 1};
  ASSERT_OK_AND_ASSIGN(std::vector<Cuboid> cuboids,
                       ArrayCube(*db->olap(), cube));
  for (size_t i = 1; i < cuboids.size(); ++i) {
    EXPECT_GE(std::popcount(cuboids[i - 1].mask),
              std::popcount(cuboids[i].mask));
  }
  EXPECT_EQ(cuboids.front().mask, 7u);
  EXPECT_EQ(cuboids.back().mask, 0u);
  ASSERT_EQ(cuboids.back().result.num_groups(), 1u);
}

TEST(CubeTestStandalone, LatticeCheaperThanNaive) {
  // The lattice scheme's aggregate ops must be far below the naive
  // simultaneous cost of 2^n updates per valid cell.
  TempFile file("cube_cost");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(480, 73)));  // 100 % dense
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  CubeQuery cube;
  cube.level_cols = {1, 1, 1};
  CubeStats stats;
  ASSERT_OK(ArrayCube(*db->olap(), cube, nullptr, &stats).status());
  EXPECT_LT(stats.aggregate_ops, 8u * 480u / 2);
}

TEST(CubeTestStandalone, RejectsBadArguments) {
  TempFile file("cube_bad");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(50), SmallDbOptions()));
  CubeQuery wrong_arity;
  wrong_arity.level_cols = {1, 1};
  EXPECT_TRUE(
      ArrayCube(*db->olap(), wrong_arity).status().IsInvalidArgument());
  CubeQuery bad_level;
  bad_level.level_cols = {1, 1, 9};
  EXPECT_TRUE(ArrayCube(*db->olap(), bad_level).status().IsInvalidArgument());
  CubeQuery key_level;
  key_level.level_cols = {0, 1, 1};
  EXPECT_TRUE(ArrayCube(*db->olap(), key_level).status().IsInvalidArgument());
}

// ------------------------------------------------------------- RollUp --

// A two-column target: column 0 of 3 members, column 1 of 4.
GroupSpec TwoColumnTarget() {
  GroupSpec spec;
  spec.grouped_dims = {0, 2};
  spec.group_cols = {1, 1};
  spec.cardinalities = {3, 4};
  spec.strides = {4, 1};
  spec.num_groups = 12;
  return spec;
}

// Finer column 0 rolls up through a 5 -> 3 map into target column 0,
// column 1 is dropped, column 2 passes through into target column 1.
std::vector<RollUpColumn> ThreeColumnPlan() {
  std::vector<RollUpColumn> columns(3);
  columns[0].target = 0;
  columns[0].map = {0, 0, 1, 1, 2};
  columns[2].target = 1;
  return columns;
}

void AddRow(query::GroupedResult* result, const std::vector<int32_t>& group,
            int64_t value) {
  query::ResultRow row{group, {}};
  row.agg.Add(value);
  row.agg.Add(-value / 2);
  result->Add(row);
}

query::GroupedResult FinerResult() {
  // Rows out of canonical order on purpose: the output order comes from
  // the positions, not from the input.
  query::GroupedResult finer({"a", "b", "c"});
  int64_t value = 7;
  for (int32_t c2 : {3, 0, 2, 1}) {
    for (int32_t c0 = 4; c0 >= 0; --c0) {
      for (int32_t c1 = 0; c1 < 3; ++c1) {
        if ((c0 + c1 + c2) % 3 == 0) continue;  // some empty groups
        AddRow(&finer, {c0, c1, c2}, value);
        value = value * 31 % 1009 - 400;
      }
    }
  }
  return finer;
}

TEST(CubeTestStandalone, RollUpMatchesABruteForceRegroup) {
  const query::GroupedResult finer = FinerResult();
  const std::vector<RollUpColumn> columns = ThreeColumnPlan();
  std::map<std::vector<int32_t>, query::AggState> groups;
  for (const query::ResultRow& row : finer.rows()) {
    groups[{columns[0].map[row.group[0]], row.group[2]}].Merge(row.agg);
  }
  query::GroupedResult expected({"x", "y"});
  for (const auto& [group, agg] : groups) {
    expected.Add(query::ResultRow{group, agg});
  }

  std::optional<query::GroupedResult> got =
      RollUp(finer, columns, TwoColumnTarget(), {"x", "y"});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->group_columns(), expected.group_columns());
  EXPECT_TRUE(got->SameAs(expected)) << "got:\n"
                                     << got->ToString(query::AggFunc::kSum)
                                     << "expected:\n"
                                     << expected.ToString(query::AggFunc::kSum);
  EXPECT_EQ(got->num_groups(), 12u);
}

TEST(CubeTestStandalone, FlatEmitMatchesADivisionDecode) {
  // Widths 0 to 5 (odd and even column counts), every fourth group empty
  // or none, through both the copying and the adopting form.
  for (size_t width = 0; width <= 5; ++width) {
    GroupSpec spec;
    spec.cardinalities.resize(width);
    for (size_t g = 0; g < width; ++g) {
      spec.cardinalities[g] = static_cast<int32_t>(2 + (g * 3) % 4);
    }
    spec.strides.assign(width, 1);
    spec.num_groups = 1;
    for (size_t g = width; g > 0; --g) {
      spec.strides[g - 1] = spec.num_groups;
      spec.num_groups *= static_cast<uint64_t>(spec.cardinalities[g - 1]);
    }
    const std::vector<std::string> names(width, "c");
    for (const bool sparse : {false, true}) {
      std::vector<query::AggState> flat(spec.num_groups);
      query::GroupedResult expected(names);
      std::vector<int32_t> group(width);
      for (uint64_t i = 0; i < flat.size(); ++i) {
        if (sparse && i % 4 == 1) continue;
        flat[i].Add(static_cast<int64_t>(i) - 5);
        for (size_t g = 0; g < width; ++g) {
          group[g] = static_cast<int32_t>(
              i / spec.strides[g] % static_cast<uint64_t>(spec.cardinalities[g]));
        }
        expected.Add({group, flat[i]});
      }
      const query::GroupedResult copied = FlatToGroupedResult(spec, flat, names);
      EXPECT_TRUE(copied.SameAs(expected)) << width << " columns";
      EXPECT_EQ(copied.width(), width);
      const query::GroupedResult adopted =
          FlatToGroupedResult(spec, std::move(flat), names);
      EXPECT_TRUE(adopted.SameAs(expected)) << width << " columns";
      EXPECT_EQ(adopted.num_groups(), expected.num_groups());
    }
  }
}

TEST(CubeTestStandalone, RollUpCodeOutsideItsMapIsRejected) {
  query::GroupedResult finer = FinerResult();
  AddRow(&finer, {5, 0, 0}, 1);
  EXPECT_FALSE(RollUp(finer, ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"})
                   .has_value());
  query::GroupedResult negative = FinerResult();
  AddRow(&negative, {-1, 0, 0}, 1);
  EXPECT_FALSE(
      RollUp(negative, ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"})
          .has_value());
}

TEST(CubeTestStandalone, RollUpKeptCodeBeyondTheTargetCardinalityIsRejected) {
  // A passed-through code past the target's 4 members.
  query::GroupedResult finer = FinerResult();
  AddRow(&finer, {0, 0, 4}, 1);
  EXPECT_FALSE(RollUp(finer, ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"})
                   .has_value());
  // A map whose image leaves the target's 3 members.
  std::vector<RollUpColumn> columns = ThreeColumnPlan();
  columns[0].map = {0, 0, 1, 1, 3};
  EXPECT_FALSE(RollUp(FinerResult(), columns, TwoColumnTarget(), {"x", "y"})
                   .has_value());
}

TEST(CubeTestStandalone, RollUpRowOfTheWrongWidthIsRejected) {
  const std::optional<query::GroupedResult> expected =
      RollUp(FinerResult(), ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"});
  ASSERT_TRUE(expected.has_value());
  for (std::vector<int32_t> group :
       {std::vector<int32_t>{0, 0}, std::vector<int32_t>{0, 0, 0, 0}}) {
    // A row of two or four codes is refused by the three-column result, so
    // the code matrix stays num_groups() × 3 and rolls up as before.
    query::GroupedResult finer = FinerResult();
    const size_t rows = finer.num_groups();
    query::ResultRow row{group, {}};
    row.agg.Add(1);
    EXPECT_FALSE(finer.Add(row)) << group.size() << " codes";
    EXPECT_EQ(finer.num_groups(), rows);
    EXPECT_EQ(finer.codes().size(), rows * 3);
    const std::optional<query::GroupedResult> rolled =
        RollUp(finer, ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"});
    ASSERT_TRUE(rolled.has_value());
    EXPECT_TRUE(rolled->SameAs(*expected)) << group.size() << " codes";
    // A result whose rows all have that width does not fit the plan.
    query::GroupedResult other;
    EXPECT_TRUE(other.Add(row));
    EXPECT_EQ(other.width(), group.size());
    EXPECT_FALSE(
        RollUp(other, ThreeColumnPlan(), TwoColumnTarget(), {"x", "y"})
            .has_value())
        << group.size() << " codes";
  }
}

TEST(CubeTestStandalone, RollUpPlanMustLandOnEveryTargetColumnOnce) {
  std::vector<RollUpColumn> twice = ThreeColumnPlan();
  twice[0].target = 1;  // columns 0 and 2 into target column 1, none in 0
  EXPECT_FALSE(RollUp(FinerResult(), twice, TwoColumnTarget(), {"x", "y"})
                   .has_value());
  std::vector<RollUpColumn> short_of_one = ThreeColumnPlan();
  short_of_one[2].target.reset();  // nothing lands in target column 1
  EXPECT_FALSE(
      RollUp(FinerResult(), short_of_one, TwoColumnTarget(), {"x", "y"})
          .has_value());
  std::vector<RollUpColumn> past_the_end = ThreeColumnPlan();
  past_the_end[2].target = 2;
  EXPECT_FALSE(
      RollUp(FinerResult(), past_the_end, TwoColumnTarget(), {"x", "y"})
          .has_value());
}

}  // namespace
}  // namespace paradise
