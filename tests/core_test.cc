// Tests for the OLAP Array ADT core: IndexToIndex arrays, the ADT's build/
// open/cell functions, both consolidation algorithms against a brute-force
// reference, slicing, subset summation, and consolidation materialization.
#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/consolidate.h"
#include "core/index_to_index.h"
#include "core/olap_array.h"
#include "core/slice.h"
#include "gen/datasets.h"
#include "schema/loader.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("core");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig()));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_, SmallDbOptions()));
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_F(CoreTest, IndexToIndexMatchesDimensionTable) {
  for (size_t d = 0; d < 3; ++d) {
    const IndexToIndexArray& i2i = db_->olap()->i2i(d);
    EXPECT_EQ(i2i.num_members(), db_->dim(d).num_rows());
    EXPECT_EQ(i2i.num_levels(), 3u);
    EXPECT_EQ(i2i.Cardinality(0),
              static_cast<int32_t>(db_->dim(d).num_rows()));
    for (size_t level = 1; level < 3; ++level) {
      for (uint32_t base = 0; base < i2i.num_members(); ++base) {
        ASSERT_OK_AND_ASSIGN(int32_t code,
                             db_->dim(d).RowAttrCode(base, level));
        EXPECT_EQ(i2i.Map(level, base), code);
      }
      // Level 0 is the identity.
      EXPECT_EQ(i2i.Map(0, 3), 3);
    }
  }
}

TEST_F(CoreTest, IndexToIndexSerializeRoundTrip) {
  const IndexToIndexArray& i2i = db_->olap()->i2i(1);
  size_t consumed = 0;
  ASSERT_OK_AND_ASSIGN(IndexToIndexArray back,
                       IndexToIndexArray::Deserialize(i2i.Serialize(),
                                                      &consumed));
  EXPECT_TRUE(back == i2i);
  EXPECT_EQ(consumed, i2i.Serialize().size());
}

TEST_F(CoreTest, KeyToIndexViaBTree) {
  ASSERT_OK_AND_ASSIGN(std::optional<uint32_t> idx,
                       db_->olap()->KeyToIndex(0, 4));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 4u);  // keys are row positions in the synthetic data
  ASSERT_OK_AND_ASSIGN(idx, db_->olap()->KeyToIndex(0, 999));
  EXPECT_FALSE(idx.has_value());
}

TEST_F(CoreTest, AttrIndexListMatchesLevelCodes) {
  // Every base index whose level-1 code is 1 on dimension 1.
  std::vector<uint32_t> list;
  ASSERT_OK(db_->olap()->AttrIndexList(
      1, 1, StringPrefixKey(gen::AttrValue(1, 1, 1)), &list));
  std::sort(list.begin(), list.end());
  std::vector<uint32_t> expected;
  for (uint32_t key = 0; key < data_.config.dims[1].size; ++key) {
    if (data_.config.dims[1].LevelCode(1, key) == 1) expected.push_back(key);
  }
  EXPECT_EQ(list, expected);
}

TEST_F(CoreTest, ReadCellByKeysMatchesData) {
  // Probe every generated valid cell plus one invalid one.
  for (size_t i = 0; i < std::min<size_t>(40, data_.measures.size()); ++i) {
    const std::vector<int32_t> keys =
        data_.CellKeys(data_.cell_global_indices[i]);
    ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v,
                         db_->olap()->ReadCellByKeys(keys));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, data_.measures[i]);
  }
  EXPECT_TRUE(
      db_->olap()->ReadCellByKeys({0, 0, 0, 0}).status().IsInvalidArgument());
}

TEST_F(CoreTest, WriteCellByKeysUpdatesArray) {
  const std::vector<int32_t> keys = {1, 2, 3};
  ASSERT_OK(db_->olap()->WriteCellByKeys(keys, 4242));
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v,
                       db_->olap()->ReadCellByKeys(keys));
  EXPECT_EQ(v, std::optional<int64_t>(4242));
}

TEST_F(CoreTest, ConsolidateMatchesBruteForce) {
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  const query::GroupedResult expected = BruteForce(data_, q);
  EXPECT_TRUE(got.SameAs(expected))
      << "got:\n" << got.ToString(q.agg) << "expected:\n"
      << expected.ToString(q.agg);
}

TEST_F(CoreTest, ConsolidateGroupingSubsets) {
  // Group only dimension 1 at level 2, collapse the rest.
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[1].group_by_col = 2;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_TRUE(got.SameAs(BruteForce(data_, q)));
  EXPECT_LE(got.num_groups(), 2u);  // level-2 cardinality of dim1
  EXPECT_EQ(got.group_columns().size(), 1u);
}

TEST_F(CoreTest, ConsolidateFullCollapseIsGrandTotal) {
  query::ConsolidationQuery q;
  q.dims.resize(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  ASSERT_EQ(got.num_groups(), 1u);
  int64_t expected_sum = 0;
  for (int64_t m : data_.measures) expected_sum += m;
  EXPECT_EQ(got.rows()[0].agg.sum, expected_sum);
  EXPECT_EQ(got.rows()[0].agg.count, data_.measures.size());
}

TEST_F(CoreTest, ConsolidatePicksSourceBySelection) {
  // One executor serves both shapes: a selection runs the §4.2 probe
  // (candidates, no scanned cells), a selection-free query the §4.1 scan.
  ArrayConsolidateStats probe, scan;
  ASSERT_OK_AND_ASSIGN(
      query::GroupedResult with_selection,
      ArrayConsolidate(*db_->olap(), gen::Query2(3), nullptr, &probe));
  ASSERT_OK_AND_ASSIGN(
      query::GroupedResult without_selection,
      ArrayConsolidate(*db_->olap(), gen::Query1(3), nullptr, &scan));
  EXPECT_TRUE(with_selection.SameAs(BruteForce(data_, gen::Query2(3))));
  EXPECT_TRUE(without_selection.SameAs(BruteForce(data_, gen::Query1(3))));
  EXPECT_GT(probe.candidates, 0u);
  EXPECT_EQ(probe.cells_scanned, 0u);
  EXPECT_GT(scan.cells_scanned, 0u);
  EXPECT_EQ(scan.candidates, 0u);
}

TEST_F(CoreTest, ConsolidateWithSelectionMatchesBruteForce) {
  const query::ConsolidationQuery q = gen::Query2(3);
  ArrayConsolidateStats stats;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q, nullptr, &stats));
  const query::GroupedResult expected = BruteForce(data_, q);
  EXPECT_TRUE(got.SameAs(expected))
      << "got:\n" << got.ToString(q.agg) << "expected:\n"
      << expected.ToString(q.agg);
  EXPECT_EQ(stats.hits, expected.rows().empty()
                            ? 0
                            : [&] {
                                uint64_t n = 0;
                                for (const auto& r : expected.rows()) {
                                  n += r.agg.count;
                                }
                                return n;
                              }());
  EXPECT_GT(stats.candidates, 0u);
}

TEST_F(CoreTest, SelectionWithMultipleValuesUnions) {
  query::ConsolidationQuery q = gen::Query1(3);
  q.dims[0].selections.push_back(query::Selection{
      2,
      {query::Literal{gen::AttrValue(0, 2, 0)},
       query::Literal{gen::AttrValue(0, 2, 1)}}});
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_TRUE(got.SameAs(BruteForce(data_, q)));
}

TEST_F(CoreTest, SelectionAcrossAttributesIntersects) {
  query::ConsolidationQuery q = gen::Query1(3);
  // Two selections on the same dimension, different attributes: ANDed.
  q.dims[2].selections.push_back(
      query::Selection{1, {query::Literal{gen::AttrValue(2, 1, 0)}}});
  q.dims[2].selections.push_back(
      query::Selection{2, {query::Literal{gen::AttrValue(2, 2, 0)}}});
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_TRUE(got.SameAs(BruteForce(data_, q)));
}

TEST_F(CoreTest, SelectionOfAbsentValueIsEmpty) {
  query::ConsolidationQuery q = gen::Query1(3);
  q.dims[0].selections.push_back(
      query::Selection{1, {query::Literal{std::string("NOPE")}}});
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_EQ(got.num_groups(), 0u);
}

TEST_F(CoreTest, ChunkSkipAblationSameResultMoreReads) {
  const query::ConsolidationQuery q = gen::Query2(3);
  ArrayConsolidateStats with_skip, without_skip;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult a,
                       ArrayConsolidate(*db_->olap(), q, nullptr, &with_skip));
  ArrayConsolidateOptions no_skip;
  no_skip.skip_non_overlapping_chunks = false;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult b,
                       ArrayConsolidate(*db_->olap(), q, nullptr,
                                        &without_skip, no_skip));
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_GE(without_skip.chunks_read, with_skip.chunks_read);
  EXPECT_EQ(without_skip.chunks_skipped, 0u);
}

TEST_F(CoreTest, AggregateFunctionsAllConsistent) {
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                       ArrayConsolidate(*db_->olap(), q));
  for (const query::ResultRow& row : got.rows()) {
    EXPECT_GE(row.agg.count, 1u);
    EXPECT_LE(row.agg.min, row.agg.max);
    EXPECT_GE(row.agg.sum,
              row.agg.min * static_cast<int64_t>(row.agg.count));
    EXPECT_LE(row.agg.sum,
              row.agg.max * static_cast<int64_t>(row.agg.count));
    const double avg = row.agg.Finalize(query::AggFunc::kAvg);
    EXPECT_GE(avg, static_cast<double>(row.agg.min));
    EXPECT_LE(avg, static_cast<double>(row.agg.max));
  }
}

TEST_F(CoreTest, SliceReturnsOnePlane) {
  ASSERT_OK_AND_ASSIGN(std::vector<SliceCell> slice,
                       ArraySlice(*db_->olap(), 0, 2));
  uint64_t expected = 0;
  for (uint64_t g : data_.cell_global_indices) {
    if (data_.CellKeys(g)[0] == 2) ++expected;
  }
  EXPECT_EQ(slice.size(), expected);
  for (const SliceCell& cell : slice) {
    EXPECT_EQ(cell.coords[0], 2u);
  }
  EXPECT_TRUE(ArraySlice(*db_->olap(), 0, 1000).status().IsNotFound());
  EXPECT_TRUE(ArraySlice(*db_->olap(), 9, 0).status().IsInvalidArgument());
}

TEST_F(CoreTest, SumSubsetMatchesBruteForce) {
  const IndexBox box = {{1, 4}, {0, 8}, {2, 9}};
  ASSERT_OK_AND_ASSIGN(query::AggState agg,
                       ArraySumSubset(*db_->olap(), box));
  query::AggState expected;
  for (size_t i = 0; i < data_.cell_global_indices.size(); ++i) {
    const std::vector<int32_t> keys =
        data_.CellKeys(data_.cell_global_indices[i]);
    bool inside = true;
    for (size_t d = 0; d < 3; ++d) {
      const uint32_t k = static_cast<uint32_t>(keys[d]);
      if (k < box[d].first || k >= box[d].second) inside = false;
    }
    if (inside) expected.Add(data_.measures[i]);
  }
  EXPECT_TRUE(agg == expected);
}

TEST_F(CoreTest, SumSubsetWholeArrayIsGrandTotal) {
  IndexBox box;
  for (uint32_t size : db_->olap()->layout().dims()) box.push_back({0, size});
  ASSERT_OK_AND_ASSIGN(query::AggState agg, ArraySumSubset(*db_->olap(), box));
  EXPECT_EQ(agg.count, data_.measures.size());
  EXPECT_TRUE(ArraySumSubset(*db_->olap(), {{0, 1}}).status()
                  .IsInvalidArgument());
}

TEST_F(CoreTest, MaterializeConsolidationWritesResultArray) {
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(
      ChunkedArray result,
      MaterializeConsolidation(db_->storage(), *db_->olap(), q,
                               ArrayOptions{}));
  ASSERT_OK_AND_ASSIGN(query::GroupedResult expected,
                       ArrayConsolidate(*db_->olap(), q));
  EXPECT_EQ(result.num_valid_cells(), expected.num_groups());
  for (const query::ResultRow& row : expected.rows()) {
    CellCoords coords(row.group.size());
    for (size_t i = 0; i < row.group.size(); ++i) {
      coords[i] = static_cast<uint32_t>(row.group[i]);
    }
    ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v, result.GetCell(coords));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, row.agg.sum);
  }
}

TEST_F(CoreTest, OlapArrayReopens) {
  ASSERT_OK(db_->storage()->Checkpoint());
  ASSERT_OK(db_->DropCaches());
  ASSERT_OK_AND_ASSIGN(OlapArray reopened,
                       OlapArray::Open(db_->storage(), "cube"));
  EXPECT_EQ(reopened.num_dims(), 3u);
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult got, ArrayConsolidate(reopened, q));
  EXPECT_TRUE(got.SameAs(BruteForce(data_, q)));
  EXPECT_TRUE(
      OlapArray::Open(db_->storage(), "missing").status().IsNotFound());
}

TEST_F(CoreTest, GroupSpecValidation) {
  query::ConsolidationQuery q = gen::Query1(3);
  q.dims[0].group_by_col = 9;  // out of range
  EXPECT_TRUE(GroupSpec::Make(*db_->olap(), q).status().IsInvalidArgument());
  q = gen::Query1(3);
  q.dims.pop_back();  // arity mismatch
  EXPECT_TRUE(GroupSpec::Make(*db_->olap(), q).status().IsInvalidArgument());
}

}  // namespace
}  // namespace paradise
