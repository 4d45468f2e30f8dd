// Tests for the synthetic data generator and the paper data-set presets.
#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generator.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::TinyConfig;

TEST(GeneratorTest, DeterministicForSameSeed) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset a, gen::Generate(TinyConfig()));
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset b, gen::Generate(TinyConfig()));
  EXPECT_EQ(a.cell_global_indices, b.cell_global_indices);
  EXPECT_EQ(a.measures, b.measures);
}

TEST(GeneratorTest, ExactValidCellCount) {
  gen::GenConfig config = TinyConfig(/*valid=*/333);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  EXPECT_EQ(data.cell_global_indices.size(), 333u);
  EXPECT_EQ(data.measures.size(), 333u);
  // Sorted and distinct, within range.
  for (size_t i = 1; i < data.cell_global_indices.size(); ++i) {
    EXPECT_LT(data.cell_global_indices[i - 1], data.cell_global_indices[i]);
  }
  EXPECT_LT(data.cell_global_indices.back(), config.TotalCells());
}

TEST(GeneratorTest, MeasuresWithinRange) {
  gen::GenConfig config = TinyConfig();
  config.measure_min = 5;
  config.measure_max = 9;
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  for (int64_t m : data.measures) {
    EXPECT_GE(m, 5);
    EXPECT_LE(m, 9);
  }
}

TEST(GeneratorTest, ValidationCatchesBadConfigs) {
  gen::GenConfig config = TinyConfig();
  config.num_valid_cells = config.TotalCells() + 1;
  EXPECT_TRUE(gen::Generate(config).status().IsInvalidArgument());
  config = TinyConfig();
  config.dims[0].level_cardinalities[0] = config.dims[0].size + 1;
  EXPECT_TRUE(gen::Generate(config).status().IsInvalidArgument());
  config = TinyConfig();
  config.measure_min = 10;
  config.measure_max = 1;
  EXPECT_TRUE(gen::Generate(config).status().IsInvalidArgument());
  EXPECT_TRUE(gen::Generate(gen::GenConfig{}).status().IsInvalidArgument());
}

TEST(GeneratorTest, LevelCodesFormBlocks) {
  gen::GenDimension dim;
  dim.size = 12;
  dim.level_cardinalities = {4, 2};
  // Level 1: 12/4 = 3 keys per code; non-decreasing, covering 0..3.
  uint32_t prev = 0;
  std::set<uint32_t> codes;
  for (uint32_t key = 0; key < 12; ++key) {
    const uint32_t code = dim.LevelCode(1, key);
    EXPECT_GE(code, prev);
    prev = code;
    codes.insert(code);
    EXPECT_LT(code, 4u);
  }
  EXPECT_EQ(codes.size(), 4u);
}

TEST(GeneratorTest, AttrValueFormat) {
  EXPECT_EQ(gen::AttrValue(0, 1, 3), "AH1C003");
  EXPECT_EQ(gen::AttrValue(2, 2, 42), "CH2C042");
  EXPECT_LE(gen::AttrValue(25, 2, 999).size(), 8u);
}

TEST(GeneratorTest, CellKeysRoundTrip) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(TinyConfig()));
  // keys decode row-major: reconstruct the global index.
  for (size_t i = 0; i < 20 && i < data.cell_global_indices.size(); ++i) {
    const std::vector<int32_t> keys =
        data.CellKeys(data.cell_global_indices[i]);
    uint64_t g = 0;
    for (size_t d = 0; d < keys.size(); ++d) {
      g = g * data.config.dims[d].size + static_cast<uint64_t>(keys[d]);
    }
    EXPECT_EQ(g, data.cell_global_indices[i]);
  }
}

TEST(GeneratorTest, ToStarSchemaShape) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(TinyConfig()));
  const StarSchema schema = data.ToStarSchema("mycube");
  EXPECT_EQ(schema.cube_name, "mycube");
  ASSERT_EQ(schema.num_dims(), 3u);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(schema.dims[d].attrs.size(), 3u);  // key + 2 levels
    EXPECT_EQ(schema.dims[d].attrs[0].type, ColumnType::kInt32);
    EXPECT_EQ(schema.dims[d].attrs[1].type, ColumnType::kString16);
  }
  const Schema fact = schema.FactSchema();
  EXPECT_EQ(fact.num_columns(), 4u);
  EXPECT_EQ(fact.record_size(), 3 * 4 + 8u);
}

TEST(DatasetsTest, DataSet1Definitions) {
  for (uint32_t last : {50u, 100u, 1000u}) {
    const gen::GenConfig config = gen::DataSet1(last);
    EXPECT_EQ(config.dims.size(), 4u);
    EXPECT_EQ(config.dims[3].size, last);
    EXPECT_EQ(config.num_valid_cells, gen::kDataSet1ValidCells);
    EXPECT_EQ(config.chunk_extents,
              (std::vector<uint32_t>{20, 20, 20, 10}));
    EXPECT_OK(config.Validate());
  }
  // Densities: 20 %, 10 %, 1 %.
  EXPECT_NEAR(gen::DataSet1(50).Density(), 0.20, 1e-9);
  EXPECT_NEAR(gen::DataSet1(100).Density(), 0.10, 1e-9);
  EXPECT_NEAR(gen::DataSet1(1000).Density(), 0.01, 1e-9);
}

TEST(DatasetsTest, DataSet2DensitySweep) {
  for (double density : {0.005, 0.01, 0.05, 0.20}) {
    const gen::GenConfig config = gen::DataSet2(density);
    EXPECT_OK(config.Validate());
    EXPECT_NEAR(config.Density(), density, 1e-6);
    EXPECT_EQ(config.dims[3].size, 100u);
  }
}

TEST(DatasetsTest, QueryTemplates) {
  const query::ConsolidationQuery q1 = gen::Query1(4);
  EXPECT_FALSE(q1.HasSelection());
  for (const auto& d : q1.dims) EXPECT_EQ(d.group_by_col, 1u);

  const query::ConsolidationQuery q2 = gen::Query2(4);
  EXPECT_TRUE(q2.HasSelection());
  for (const auto& d : q2.dims) {
    ASSERT_EQ(d.selections.size(), 1u);
    EXPECT_EQ(d.selections[0].attr_col, 2u);
    EXPECT_EQ(d.selections[0].values.size(), 1u);
  }

  const query::ConsolidationQuery q3 = gen::Query3(4, 3);
  EXPECT_TRUE(q3.HasSelection());
  EXPECT_TRUE(q3.dims[0].group_by_col.has_value());
  EXPECT_TRUE(q3.dims[2].group_by_col.has_value());
  EXPECT_FALSE(q3.dims[3].group_by_col.has_value());
  EXPECT_TRUE(q3.dims[3].selections.empty());
}

TEST(StarSchemaTest, SerializeRoundTrip) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(TinyConfig()));
  const StarSchema schema = data.ToStarSchema();
  ASSERT_OK_AND_ASSIGN(StarSchema back,
                       StarSchema::Deserialize(schema.Serialize()));
  EXPECT_EQ(back.cube_name, schema.cube_name);
  EXPECT_EQ(back.measures, schema.measures);
  ASSERT_EQ(back.num_dims(), schema.num_dims());
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    EXPECT_EQ(back.dims[d].name, schema.dims[d].name);
    EXPECT_TRUE(back.dims[d].ToSchema() == schema.dims[d].ToSchema());
  }
}

TEST(StarSchemaTest, ValidationCatchesBadSchemas) {
  StarSchema schema;
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());  // no dims
  schema.dims.push_back(DimensionSpec{
      "d", {{"k", ColumnType::kString16}}});  // key must be int32
  EXPECT_TRUE(schema.Validate().IsInvalidArgument());
}

TEST(QueryTest, LiteralNormalization) {
  EXPECT_EQ(query::NormalizeLiteral(query::Literal{int64_t{42}}), 42);
  EXPECT_EQ(query::NormalizeLiteral(query::Literal{std::string("AB")}),
            StringPrefixKey("AB"));
  EXPECT_EQ(query::LiteralToString(query::Literal{int64_t{7}}), "7");
  EXPECT_EQ(query::LiteralToString(query::Literal{std::string("x")}), "x");
}

TEST(QueryTest, ValidateChecksArityAndColumns) {
  query::ConsolidationQuery q = gen::Query1(3);
  EXPECT_OK(q.Validate({3, 3, 3}));
  EXPECT_TRUE(q.Validate({3, 3}).IsInvalidArgument());
  q.dims[0].group_by_col = 0;  // the key column cannot be a group-by level
  EXPECT_TRUE(q.Validate({3, 3, 3}).IsInvalidArgument());
  q = gen::Query2(3);
  q.dims[1].selections[0].attr_col = 5;
  EXPECT_TRUE(q.Validate({3, 3, 3}).IsInvalidArgument());
  q = gen::Query2(3);
  q.dims[1].selections[0].values.clear();
  EXPECT_TRUE(q.Validate({3, 3, 3}).IsInvalidArgument());
}

TEST(ResultTest, SortAndCompare) {
  query::GroupedResult a({"g"});
  a.Add({std::vector<int32_t>{2}, {}});
  a.Add({std::vector<int32_t>{1}, {}});
  a.SortCanonical();
  EXPECT_EQ(a.rows()[0].group[0], 1);
  query::GroupedResult b({"g"});
  b.Add({std::vector<int32_t>{1}, {}});
  b.Add({std::vector<int32_t>{2}, {}});
  b.SortCanonical();
  EXPECT_TRUE(a.SameAs(b));
  query::GroupedResult c({"g"});
  c.Add({std::vector<int32_t>{1}, {}});
  c.SortCanonical();
  EXPECT_FALSE(a.SameAs(c));
}

TEST(ResultTest, SortCanonicalPermutesCodesAndAggsTogether) {
  // Rows out of order in two columns, each tagged by its sum.
  const std::vector<std::vector<int32_t>> groups = {
      {1, 0}, {0, 5}, {1, -2}, {0, -1}};
  query::GroupedResult r({"a", "b"});
  for (size_t i = 0; i < groups.size(); ++i) {
    query::AggState agg;
    agg.Add(static_cast<int64_t>(i));
    r.Add({groups[i], agg});
  }
  r.SortCanonical();
  EXPECT_EQ(r.codes(), (std::vector<int32_t>{0, -1, 0, 5, 1, -2, 1, 0}));
  std::vector<int64_t> sums;
  for (const query::AggState& agg : r.aggs()) sums.push_back(agg.sum);
  EXPECT_EQ(sums, (std::vector<int64_t>{3, 1, 2, 0}));
  EXPECT_EQ(r.TotalSum(), 6);
}

TEST(ResultTest, ZeroColumnResultKeepsItsRow) {
  // Every dimension collapsed: one row of no codes.
  query::GroupedResult r(std::vector<std::string>{});
  query::AggState total;
  total.Add(4);
  r.Add({std::span<const int32_t>{}, total});
  EXPECT_EQ(r.num_groups(), 1u);
  EXPECT_EQ(r.width(), 0u);
  EXPECT_TRUE(r.codes().empty());
  EXPECT_EQ(r.rows()[0].agg.sum, 4);
  EXPECT_TRUE(r.rows()[0].group.empty());
  EXPECT_FALSE(r.SameAs(query::GroupedResult(std::vector<std::string>{})));
}

TEST(ResultTest, AggStateFinalize) {
  query::AggState s;
  s.Add(4);
  s.Add(10);
  s.Add(-2);
  EXPECT_EQ(s.Finalize(query::AggFunc::kSum), 12.0);
  EXPECT_EQ(s.Finalize(query::AggFunc::kCount), 3.0);
  EXPECT_EQ(s.Finalize(query::AggFunc::kMin), -2.0);
  EXPECT_EQ(s.Finalize(query::AggFunc::kMax), 10.0);
  EXPECT_EQ(s.Finalize(query::AggFunc::kAvg), 4.0);
  const query::AggState empty;
  EXPECT_EQ(empty.Finalize(query::AggFunc::kAvg), 0.0);
  EXPECT_EQ(empty.Finalize(query::AggFunc::kMin), 0.0);
}

TEST(ResultTest, MergeCombinesStates) {
  query::AggState a, b;
  a.Add(1);
  a.Add(5);
  b.Add(-3);
  a.Merge(b);
  EXPECT_EQ(a.sum, 3);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.min, -3);
  EXPECT_EQ(a.max, 5);
}

}  // namespace
}  // namespace paradise
