// B-tree join-index selection plan tests: agreement with brute force and
// the bitmap plan, opt-in build behaviour, and persistence across reopen.
#include <gtest/gtest.h>

#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

DatabaseOptions WithJoinIndexes() {
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  return options;
}

class BTreeSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("btreesel");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig(350, 83)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_,
                                      WithJoinIndexes()));
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_F(BTreeSelectTest, MatchesBruteForceAndBitmap) {
  for (const query::ConsolidationQuery& q :
       {gen::Query2(3), gen::Query3(3, 2)}) {
    const query::GroupedResult expected = BruteForce(data_, q);
    ASSERT_OK_AND_ASSIGN(Execution btree,
                         RunQuery(db_.get(), EngineKind::kBTreeSelect, q));
    EXPECT_TRUE(btree.result.SameAs(expected));
    ASSERT_OK_AND_ASSIGN(Execution bitmap,
                         RunQuery(db_.get(), EngineKind::kBitmap, q));
    EXPECT_TRUE(btree.result.SameAs(bitmap.result));
  }
}

TEST_F(BTreeSelectTest, AuxCountsQualifyingTuples) {
  const query::ConsolidationQuery q = gen::Query2(3);
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kBTreeSelect, q));
  const query::GroupedResult brute = BruteForce(data_, q);
  uint64_t expected = 0;
  for (const auto& row : brute.rows()) {
    expected += row.agg.count;
  }
  EXPECT_EQ(exec.stats.aux, expected);
}

TEST_F(BTreeSelectTest, RequiresSelection) {
  EXPECT_TRUE(RunQuery(db_.get(), EngineKind::kBTreeSelect, gen::Query1(3))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(BTreeSelectTest, MultiValueAndMultiAttrSelections) {
  query::ConsolidationQuery q = gen::Query1(3);
  q.dims[0].selections.push_back(query::Selection{
      2,
      {query::Literal{gen::AttrValue(0, 2, 0)},
       query::Literal{gen::AttrValue(0, 2, 1)}}});
  q.dims[2].selections.push_back(
      query::Selection{1, {query::Literal{gen::AttrValue(2, 1, 2)}}});
  q.dims[2].selections.push_back(
      query::Selection{2, {query::Literal{gen::AttrValue(2, 2, 1)}}});
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kBTreeSelect, q));
  EXPECT_TRUE(exec.result.SameAs(BruteForce(data_, q)));
}

TEST_F(BTreeSelectTest, EmptySelectionYieldsEmptyResult) {
  query::ConsolidationQuery q = gen::Query1(3);
  q.dims[0].selections.push_back(
      query::Selection{1, {query::Literal{std::string("NOPE")}}});
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db_.get(), EngineKind::kBTreeSelect, q));
  EXPECT_EQ(exec.result.num_groups(), 0u);
  EXPECT_EQ(exec.stats.aux, 0u);
}

TEST_F(BTreeSelectTest, SurvivesReopen) {
  ASSERT_OK(db_->storage()->Close());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> reopened,
                       Database::Open(file_->path(), WithJoinIndexes()));
  const query::ConsolidationQuery q = gen::Query2(3);
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(reopened.get(), EngineKind::kBTreeSelect, q));
  EXPECT_TRUE(exec.result.SameAs(BruteForce(data_, q)));
}

TEST(BTreeSelectOptIn, FailsWithoutBuiltIndexes) {
  TempFile file("btreesel_optout");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(100),
                              SmallDbOptions()));  // indexes not built
  EXPECT_TRUE(RunQuery(db.get(), EngineKind::kBTreeSelect, gen::Query2(3))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace paradise
