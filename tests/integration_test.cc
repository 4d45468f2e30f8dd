// End-to-end integration tests: the full Database lifecycle (build, query,
// checkpoint, reopen from disk, query again), storage accounting across the
// density range (§3.2's break-even analysis), and load-protocol errors.
#include <gtest/gtest.h>

#include "common/options.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

TEST(IntegrationTest, FullLifecycleSurvivesReopen) {
  TempFile file("lifecycle");
  gen::GenConfig config = TinyConfig(250, 99);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  const query::ConsolidationQuery q1 = gen::Query1(3);
  const query::ConsolidationQuery q2 = gen::Query2(3);
  query::GroupedResult expected1 = BruteForce(data, q1);
  query::GroupedResult expected2 = BruteForce(data, q2);

  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db.get(), EngineKind::kArray, q1));
    EXPECT_TRUE(exec.result.SameAs(expected1));
    ASSERT_OK(db->storage()->Close());
  }

  // Reopen from disk: every structure must come back.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(file.path(), SmallDbOptions()));
  EXPECT_TRUE(db->has_olap());
  EXPECT_EQ(db->fact()->num_tuples(), 250u);
  EXPECT_EQ(db->schema().num_dims(), 3u);

  for (EngineKind kind :
       {EngineKind::kArray, EngineKind::kStarJoin, EngineKind::kLeftDeep}) {
    ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db.get(), kind, q1));
    EXPECT_TRUE(exec.result.SameAs(expected1)) << EngineKindToString(kind);
  }
  for (EngineKind kind : {EngineKind::kArray, EngineKind::kBitmap}) {
    ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db.get(), kind, q2));
    EXPECT_TRUE(exec.result.SameAs(expected2)) << EngineKindToString(kind);
  }
}

TEST(IntegrationTest, LoadProtocolErrors) {
  TempFile file("protocol");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(10)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      Database::Create(file.path(), data.ToStarSchema(), SmallDbOptions()));
  // Facts before dimensions are rejected.
  EXPECT_TRUE(db->AppendFact({0, 0, 0}, 1).IsInvalidArgument());
  EXPECT_TRUE(db->BeginFacts().IsInvalidArgument());  // dims still empty
  // Load dimensions.
  const StarSchema schema = data.ToStarSchema();
  for (size_t d = 0; d < 3; ++d) {
    const Schema s = schema.dims[d].ToSchema();
    for (uint32_t key = 0; key < data.config.dims[d].size; ++key) {
      Tuple row(&s);
      row.SetInt32(0, static_cast<int32_t>(key));
      ASSERT_OK(row.SetString(
          1, gen::AttrValue(d, 1, data.config.dims[d].LevelCode(1, key))));
      ASSERT_OK(row.SetString(
          2, gen::AttrValue(d, 2, data.config.dims[d].LevelCode(2, key))));
      ASSERT_OK(db->AppendDimensionRow(d, row));
    }
  }
  ASSERT_OK(db->BeginFacts());
  EXPECT_TRUE(db->BeginFacts().IsInvalidArgument());
  // Dimension appends after BeginFacts are rejected.
  const Schema dim0_schema = schema.dims[0].ToSchema();
  Tuple frozen_row(&dim0_schema);
  frozen_row.SetInt32(0, 999);
  EXPECT_TRUE(db->AppendDimensionRow(0, frozen_row).IsInvalidArgument());
  EXPECT_TRUE(db->AppendFact({0, 0}, 1).IsInvalidArgument());  // arity
  ASSERT_OK(db->AppendFact({0, 0, 0}, 5));
  ASSERT_OK(db->FinishLoad());
  EXPECT_TRUE(db->FinishLoad().IsInvalidArgument());
}

TEST(IntegrationTest, StorageReportTracksDensity) {
  // §3.2: dense arrays beat the fact file; very sparse uncompressed arrays
  // would not, but chunk-offset compression keeps the array small.
  if (ForcedChunkFormatFromEnv().value_or(std::nullopt).has_value()) {
    GTEST_SKIP() << "size expectations assume the configured per-density "
                    "formats, not a PARADISE_FORCE_CHUNK_FORMAT override";
  }
  TempFile low_file("storage_low"), high_file("storage_high");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> low,
      BuildDatabaseFromConfig(low_file.path(), TinyConfig(24, 3),
                              SmallDbOptions()));  // 5 % dense
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> high,
      BuildDatabaseFromConfig(high_file.path(), TinyConfig(480, 3),
                              SmallDbOptions()));  // 100 % dense
  ASSERT_OK_AND_ASSIGN(Database::StorageReport low_report,
                       low->ReportStorage());
  ASSERT_OK_AND_ASSIGN(Database::StorageReport high_report,
                       high->ReportStorage());
  EXPECT_GT(low_report.fact_file_bytes, 0u);
  EXPECT_GT(low_report.array_data_bytes, 0u);
  EXPECT_GT(high_report.array_data_bytes, low_report.array_data_bytes);
  EXPECT_GT(low_report.bitmap_bytes, 0u);
  EXPECT_GE(low_report.file_bytes, low_report.fact_file_bytes);
  // At 100 % density the compressed array (12 B/cell here: offset+value)
  // stays below the fact-file page footprint (20 B/record + page padding).
  EXPECT_LT(high_report.array_data_bytes, high_report.fact_file_bytes);
}

TEST(IntegrationTest, ArrayOptionalBuild) {
  TempFile file("noarray");
  DatabaseOptions options = SmallDbOptions();
  options.build_array = false;
  options.build_bitmap_indexes = false;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(100), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> lean,
      BuildDatabaseFromConfig(file.path() + ".lean", TinyConfig(100),
                              options));
  EXPECT_TRUE(db->has_olap());
  EXPECT_FALSE(lean->has_olap());
  EXPECT_TRUE(RunQuery(lean.get(), EngineKind::kArray, gen::Query1(3))
                  .status()
                  .IsInvalidArgument());
  // The relational engine still works without the array.
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(lean.get(), EngineKind::kStarJoin,
                               gen::Query1(3)));
  ASSERT_OK_AND_ASSIGN(
      Execution full, RunQuery(db.get(), EngineKind::kStarJoin,
                               gen::Query1(3)));
  EXPECT_TRUE(exec.result.SameAs(full.result));
  std::remove((file.path() + ".lean").c_str());
}

TEST(IntegrationTest, ChunkFormatsProduceSameAnswers) {
  TempFile sparse_file("fmt_sparse"), dense_file("fmt_dense"),
      auto_file("fmt_auto");
  gen::GenConfig config = TinyConfig(300, 55);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));

  DatabaseOptions sparse_opts = SmallDbOptions();
  sparse_opts.array.chunk_format = ChunkFormat::kOffsetCompressed;
  DatabaseOptions dense_opts = SmallDbOptions();
  dense_opts.array.chunk_format = ChunkFormat::kDense;
  DatabaseOptions auto_opts = SmallDbOptions();
  auto_opts.array.chunk_format = ChunkFormat::kAuto;

  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> sparse,
      BuildDatabaseFromDataset(sparse_file.path(), data, sparse_opts));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> dense,
      BuildDatabaseFromDataset(dense_file.path(), data, dense_opts));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> autodb,
      BuildDatabaseFromDataset(auto_file.path(), data, auto_opts));

  for (const query::ConsolidationQuery& q :
       {gen::Query1(3), gen::Query2(3), gen::Query3(3, 2)}) {
    ASSERT_OK_AND_ASSIGN(Execution a,
                         RunQuery(sparse.get(), EngineKind::kArray, q));
    ASSERT_OK_AND_ASSIGN(Execution b,
                         RunQuery(dense.get(), EngineKind::kArray, q));
    ASSERT_OK_AND_ASSIGN(Execution c,
                         RunQuery(autodb.get(), EngineKind::kArray, q));
    EXPECT_TRUE(a.result.SameAs(b.result));
    EXPECT_TRUE(a.result.SameAs(c.result));
  }
  // Auto never serializes larger than the better of the two fixed formats.
  ASSERT_OK_AND_ASSIGN(Database::StorageReport rs, sparse->ReportStorage());
  ASSERT_OK_AND_ASSIGN(Database::StorageReport rd, dense->ReportStorage());
  ASSERT_OK_AND_ASSIGN(Database::StorageReport ra, autodb->ReportStorage());
  EXPECT_LE(ra.array_data_bytes, std::min(rs.array_data_bytes,
                                          rd.array_data_bytes));
}

TEST(IntegrationTest, PaperShapedMiniDataset1) {
  // A scaled-down Data Set 1 shape: 10x10x10x25 cells with constant valid
  // count; checks the array engine handles multi-chunk 4-d cubes and the
  // engines agree on Query 1 and Query 2 end to end.
  TempFile file("mini_ds1");
  gen::GenConfig config;
  config.dims.resize(4);
  const uint32_t sizes[4] = {10, 10, 10, 25};
  for (size_t d = 0; d < 4; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {5, 2};
  }
  config.num_valid_cells = 2500;  // 10 % dense
  config.seed = 1234;
  config.chunk_extents = {5, 5, 5, 5};
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  for (const query::ConsolidationQuery& q :
       {gen::Query1(4), gen::Query2(4), gen::Query3(4, 3)}) {
    const query::GroupedResult expected = BruteForce(data, q);
    ASSERT_OK_AND_ASSIGN(Execution array,
                         RunQuery(db.get(), EngineKind::kArray, q));
    EXPECT_TRUE(array.result.SameAs(expected));
    ASSERT_OK_AND_ASSIGN(Execution star,
                         RunQuery(db.get(), EngineKind::kStarJoin, q));
    EXPECT_TRUE(star.result.SameAs(expected));
    if (q.HasSelection()) {
      ASSERT_OK_AND_ASSIGN(Execution bitmap,
                           RunQuery(db.get(), EngineKind::kBitmap, q));
      EXPECT_TRUE(bitmap.result.SameAs(expected));
    }
  }
}

TEST(IntegrationTest, TotalSumInvariantAcrossGroupings) {
  // Grouping choice never changes the total: sum over groups == grand total.
  TempFile file("totalsum");
  gen::GenConfig config = TinyConfig(222, 77);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  int64_t grand_total = 0;
  for (int64_t m : data.measures) grand_total += m;

  for (int kind = 0; kind < 4; ++kind) {
    query::ConsolidationQuery q;
    q.dims.resize(3);
    // Vary which dims are grouped and at which level.
    for (size_t d = 0; d < 3; ++d) {
      if ((kind >> d) & 1) q.dims[d].group_by_col = 1 + (d % 2);
    }
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db.get(), EngineKind::kArray, q));
    EXPECT_EQ(exec.result.TotalSum(), grand_total) << "grouping mask " << kind;
  }
}

}  // namespace
}  // namespace paradise
