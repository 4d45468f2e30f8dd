// LZW codec tests: round-trips (parameterized over input shapes),
// compression effectiveness on array-like data, malformed-stream rejection,
// and the kLzwDense chunk format end to end through the database.
#include <gtest/gtest.h>

#include "array/chunk.h"
#include "common/lzw.h"
#include "common/options.h"
#include "common/random.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

TEST(LzwTest, EmptyInput) {
  const std::string compressed = LzwCompress("");
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(compressed));
  EXPECT_TRUE(back.empty());
}

TEST(LzwTest, SingleByte) {
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(LzwCompress("x")));
  EXPECT_EQ(back, "x");
}

TEST(LzwTest, KwKwKCase) {
  // The classic aaaa... stream exercises the code-defined-while-used path.
  const std::string input(1000, 'a');
  const std::string compressed = LzwCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 4);
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(compressed));
  EXPECT_EQ(back, input);
}

TEST(LzwTest, AllByteValues) {
  std::string input;
  for (int round = 0; round < 4; ++round) {
    for (int b = 0; b < 256; ++b) input.push_back(static_cast<char>(b));
  }
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(LzwCompress(input)));
  EXPECT_EQ(back, input);
}

TEST(LzwTest, CompressesZeroHeavyDenseChunks) {
  // A dense array chunk at low density is mostly zeros — LZW's best case.
  Chunk chunk(10000);
  Random rng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(10000)),
                        rng.UniformRange(1, 100)));
  }
  const std::string dense = chunk.Serialize(ChunkFormat::kDense);
  const std::string compressed = LzwCompress(dense);
  EXPECT_LT(compressed.size(), dense.size() / 5);
}

TEST(LzwTest, DictionaryResetOnLargeRandomInput) {
  // Random bytes force the dictionary to 65536 entries and through resets.
  Random rng(6);
  std::string input;
  input.reserve(300000);
  for (int i = 0; i < 300000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(256)));
  }
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(LzwCompress(input)));
  EXPECT_EQ(back, input);
}

TEST(LzwTest, RejectsMalformedStreams) {
  EXPECT_TRUE(LzwDecompress("abc").status().IsCorruption());  // odd payload
  std::string ok = LzwCompress("hello world hello world");
  std::string truncated = ok.substr(0, ok.size() - 2);
  Result<std::string> r = LzwDecompress(truncated);
  EXPECT_TRUE(!r.ok() || *r != "hello world hello world");
  // Length header mismatch.
  std::string lied = ok;
  lied[0] = static_cast<char>(lied[0] + 1);
  EXPECT_FALSE(LzwDecompress(lied).ok());
}

class LzwRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(LzwRoundTrip, RandomStructuredInputs) {
  Random rng(static_cast<uint64_t>(GetParam()));
  // Mix runs, repeats and noise.
  std::string input;
  for (int block = 0; block < 50; ++block) {
    switch (rng.Uniform(3)) {
      case 0:
        input.append(rng.Uniform(200), static_cast<char>(rng.Uniform(256)));
        break;
      case 1:
        for (uint64_t i = 0, n = rng.Uniform(200); i < n; ++i) {
          input.push_back(static_cast<char>(rng.Uniform(4)));
        }
        break;
      default:
        for (uint64_t i = 0, n = rng.Uniform(200); i < n; ++i) {
          input.push_back(static_cast<char>(rng.Uniform(256)));
        }
    }
  }
  ASSERT_OK_AND_ASSIGN(std::string back, LzwDecompress(LzwCompress(input)));
  EXPECT_EQ(back, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzwRoundTrip, ::testing::Range(1, 9));

TEST(LzwChunkFormatTest, SerializeDeserializeRoundTrip) {
  Chunk chunk(500);
  Random rng(9);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(500)),
                        rng.UniformRange(-9, 9)));
  }
  const std::string blob = chunk.Serialize(ChunkFormat::kLzwDense);
  ASSERT_OK_AND_ASSIGN(Chunk back, Chunk::Deserialize(blob));
  EXPECT_TRUE(back == chunk);
  // UnwrapChunkBlob produces the dense form ChunkView can read.
  ASSERT_OK_AND_ASSIGN(std::string dense, UnwrapChunkBlob(std::string(blob)));
  ASSERT_OK_AND_ASSIGN(ChunkView view, ChunkView::Make(dense));
  EXPECT_EQ(view.num_valid(), chunk.num_valid());
}

TEST(LzwChunkFormatTest, DatabaseWithLzwChunksAnswersQueriesCorrectly) {
  TempFile file("lzwdb");
  gen::GenConfig config = TinyConfig(250, 17);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.array.chunk_format = ChunkFormat::kLzwDense;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));
  for (const query::ConsolidationQuery& q :
       {gen::Query1(3), gen::Query2(3)}) {
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db.get(), EngineKind::kArray, q));
    EXPECT_TRUE(exec.result.SameAs(BruteForce(data, q)));
  }
}

TEST(LzwChunkFormatTest, LzwSmallerThanDenseOnSparseData) {
  if (ForcedChunkFormatFromEnv().value_or(std::nullopt).has_value()) {
    GTEST_SKIP() << "PARADISE_FORCE_CHUNK_FORMAT overrides the per-array "
                    "formats this size comparison depends on";
  }
  TempFile lzw_file("lzw_sz"), dense_file("dense_sz");
  gen::GenConfig config = TinyConfig(24, 3);  // 5 % dense
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions lzw_opts = SmallDbOptions();
  lzw_opts.array.chunk_format = ChunkFormat::kLzwDense;
  DatabaseOptions dense_opts = SmallDbOptions();
  dense_opts.array.chunk_format = ChunkFormat::kDense;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> lzw,
                       BuildDatabaseFromDataset(lzw_file.path(), data,
                                                lzw_opts));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> dense,
                       BuildDatabaseFromDataset(dense_file.path(), data,
                                                dense_opts));
  EXPECT_LT(lzw->olap()->array().TotalDataBytes(),
            dense->olap()->array().TotalDataBytes());
}

}  // namespace
}  // namespace paradise
