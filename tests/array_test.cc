// Tests for the chunked-array substrate: layout geometry (with
// parameterized round-trip sweeps), chunk formats including chunk-offset
// compression, and the persistent ChunkedArray.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "array/chunk.h"
#include "array/chunk_layout.h"
#include "array/chunked_array.h"
#include "common/options.h"
#include "common/random.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::TempFile;

TEST(ChunkLayoutTest, BasicCounts) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make({40, 40, 40, 100}, {20, 20, 20, 10}));
  EXPECT_EQ(layout.num_dims(), 4u);
  EXPECT_EQ(layout.total_cells(), 40ULL * 40 * 40 * 100);
  EXPECT_EQ(layout.num_chunks(), 2ULL * 2 * 2 * 10);  // = 80, as in the paper
  EXPECT_EQ(layout.chunks_per_dim(),
            (std::vector<uint32_t>{2, 2, 2, 10}));
}

TEST(ChunkLayoutTest, PaperChunkCounts) {
  // §5.5.1: 40x40x40x{50,100,1000} with constant chunk dims give 40/80/800
  // chunks.
  for (const auto& [last, expected] :
       std::vector<std::pair<uint32_t, uint64_t>>{{50, 40}, {100, 80},
                                                  {1000, 800}}) {
    ASSERT_OK_AND_ASSIGN(
        ChunkLayout layout,
        ChunkLayout::Make({40, 40, 40, last}, {20, 20, 20, 10}));
    EXPECT_EQ(layout.num_chunks(), expected) << "last dim " << last;
  }
}

TEST(ChunkLayoutTest, RejectsBadArguments) {
  EXPECT_TRUE(ChunkLayout::Make({}, {}).status().IsInvalidArgument());
  EXPECT_TRUE(ChunkLayout::Make({4}, {4, 4}).status().IsInvalidArgument());
  EXPECT_TRUE(ChunkLayout::Make({0}, {1}).status().IsInvalidArgument());
  EXPECT_TRUE(ChunkLayout::Make({4}, {0}).status().IsInvalidArgument());
  // Chunk of 2^33 cells overflows the uint32 offset space.
  EXPECT_TRUE(ChunkLayout::Make({1u << 17, 1u << 17}, {1u << 17, 1u << 16})
                  .status()
                  .IsInvalidArgument());
}

TEST(ChunkLayoutTest, RejectsChunkCellCountThatWrapsUint64) {
  // Three 2^22 extents give 2^66 cells per chunk; the old validation's own
  // uint64 product wrapped to 4 and the layout was accepted, so every
  // CoordsToOffset/ChunkOffsetToCoords stored colliding uint32 offsets.
  EXPECT_TRUE(ChunkLayout::Make({1u << 22, 1u << 22, 1u << 22},
                                {1u << 22, 1u << 22, 1u << 22})
                  .status()
                  .IsInvalidArgument());
  // Even nastier: 2^16 * 2^16 * 2^32-shaped products. Five 2^13 extents are
  // 2^65 cells — wraps uint64 to 2, previously accepted.
  EXPECT_TRUE(ChunkLayout::Make({1u << 13, 1u << 13, 1u << 13, 1u << 13,
                                 1u << 13},
                                {1u << 13, 1u << 13, 1u << 13, 1u << 13,
                                 1u << 13})
                  .status()
                  .IsInvalidArgument());
  // A large-but-legal chunk (just under 2^32 cells) must stay accepted.
  ASSERT_OK_AND_ASSIGN(
      ChunkLayout layout,
      ChunkLayout::Make({1u << 16, 1u << 15}, {1u << 16, 1u << 15}));
  EXPECT_EQ(layout.num_chunks(), 1u);
  // Huge total arrays with small chunks are fine as long as the uint64 cell
  // index space holds: 2^63 total cells, 32^3-cell chunks.
  EXPECT_OK(ChunkLayout::Make({1u << 21, 1u << 21, 1u << 21}, {32, 32, 32})
                .status());
  // A total cell count past 2^64 cannot be indexed by uint64 globals and is
  // rejected even when each chunk is small.
  EXPECT_TRUE(ChunkLayout::Make({1u << 22, 1u << 22, 1u << 22}, {32, 32, 32})
                  .status()
                  .IsInvalidArgument());
}

TEST(ChunkLayoutTest, GlobalRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make({3, 5, 7}, {2, 2, 3}));
  for (uint64_t g = 0; g < layout.total_cells(); ++g) {
    const CellCoords c = layout.GlobalToCoords(g);
    EXPECT_EQ(layout.CoordsToGlobal(c), g);
  }
}

TEST(ChunkLayoutTest, ChunkOffsetRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make({5, 7}, {2, 3}));
  // Every cell maps to a unique (chunk, offset) and back.
  std::set<std::pair<uint64_t, uint32_t>> seen;
  for (uint32_t i = 0; i < 5; ++i) {
    for (uint32_t j = 0; j < 7; ++j) {
      const CellCoords c{i, j};
      const uint64_t chunk = layout.CoordsToChunk(c);
      const uint32_t offset = layout.CoordsToOffset(c);
      EXPECT_LT(chunk, layout.num_chunks());
      EXPECT_LT(offset, layout.ChunkCellCount(chunk));
      EXPECT_TRUE(seen.emplace(chunk, offset).second);
      EXPECT_EQ(layout.ChunkOffsetToCoords(chunk, offset), c);
    }
  }
  EXPECT_EQ(seen.size(), layout.total_cells());
}

TEST(ChunkLayoutTest, BorderChunksAreClipped) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout, ChunkLayout::Make({5}, {3}));
  EXPECT_EQ(layout.num_chunks(), 2u);
  EXPECT_EQ(layout.ChunkCellCount(0), 3u);
  EXPECT_EQ(layout.ChunkCellCount(1), 2u);  // clipped border chunk
  EXPECT_EQ(layout.ChunkBase(1), (CellCoords{3}));
  EXPECT_EQ(layout.ChunkDims(1), (CellCoords{2}));
}

TEST(ChunkLayoutTest, SerializeRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make({6, 8, 10}, {3, 4, 5}));
  size_t consumed = 0;
  ASSERT_OK_AND_ASSIGN(ChunkLayout back,
                       ChunkLayout::Deserialize(layout.Serialize(), &consumed));
  EXPECT_TRUE(back == layout);
  EXPECT_EQ(consumed, layout.Serialize().size());
}

// Parameterized geometry sweep over assorted shapes, including shapes where
// extents do not divide sizes.
struct LayoutCase {
  std::vector<uint32_t> dims;
  std::vector<uint32_t> extents;
};

// Prints a case by value, e.g. "dims=7x11 extents=3x5", so the test names
// built from it are the same in every run; gtest's fallback printer would dump
// the vectors' heap pointers instead.
void PrintTo(const LayoutCase& tc, std::ostream* os) {
  auto print_shape = [os](const std::vector<uint32_t>& shape) {
    for (size_t i = 0; i < shape.size(); ++i) {
      *os << (i == 0 ? "" : "x") << shape[i];
    }
  };
  *os << "dims=";
  print_shape(tc.dims);
  *os << " extents=";
  print_shape(tc.extents);
}

class ChunkLayoutSweep : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(ChunkLayoutSweep, EveryCellRoundTrips) {
  const LayoutCase& tc = GetParam();
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make(tc.dims, tc.extents));
  uint64_t cells_via_chunks = 0;
  for (uint64_t c = 0; c < layout.num_chunks(); ++c) {
    cells_via_chunks += layout.ChunkCellCount(c);
  }
  EXPECT_EQ(cells_via_chunks, layout.total_cells());
  for (uint64_t g = 0; g < layout.total_cells(); ++g) {
    const CellCoords coords = layout.GlobalToCoords(g);
    const uint64_t chunk = layout.CoordsToChunk(coords);
    const uint32_t offset = layout.CoordsToOffset(coords);
    ASSERT_EQ(layout.ChunkOffsetToCoords(chunk, offset), coords)
        << "global " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkLayoutSweep,
    ::testing::Values(LayoutCase{{1}, {1}}, LayoutCase{{17}, {4}},
                      LayoutCase{{8, 8}, {8, 8}},
                      LayoutCase{{7, 11}, {3, 5}},
                      LayoutCase{{4, 6, 5}, {4, 2, 3}},
                      LayoutCase{{3, 3, 3, 3}, {2, 2, 2, 2}},
                      LayoutCase{{2, 9, 2, 5}, {1, 4, 2, 5}}));

TEST(ChunkTest, PutGetErase) {
  Chunk chunk(100);
  EXPECT_TRUE(chunk.empty());
  ASSERT_OK(chunk.Put(50, 500));
  ASSERT_OK(chunk.Put(10, 100));
  ASSERT_OK(chunk.Put(50, 555));  // overwrite
  EXPECT_EQ(chunk.num_valid(), 2u);
  EXPECT_EQ(chunk.Get(50), std::optional<int64_t>(555));
  EXPECT_EQ(chunk.Get(10), std::optional<int64_t>(100));
  EXPECT_FALSE(chunk.Get(11).has_value());
  EXPECT_TRUE(chunk.Put(100, 1).IsOutOfRange());
}

TEST(ChunkTest, EntriesStaySorted) {
  Chunk chunk(1000);
  Random rng(2);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(1000)), i));
  }
  for (size_t i = 1; i < chunk.entries().size(); ++i) {
    EXPECT_LT(chunk.entries()[i - 1].offset, chunk.entries()[i].offset);
  }
}

TEST(ChunkTest, AppendSortedEnforcesOrder) {
  Chunk chunk(10);
  ASSERT_OK(chunk.AppendSorted(1, 10));
  ASSERT_OK(chunk.AppendSorted(5, 50));
  EXPECT_TRUE(chunk.AppendSorted(5, 51).IsInvalidArgument());
  EXPECT_TRUE(chunk.AppendSorted(2, 20).IsInvalidArgument());
  EXPECT_TRUE(chunk.AppendSorted(10, 1).IsOutOfRange());
}

TEST(ChunkTest, SparseSerializeRoundTrip) {
  Chunk chunk(500);
  Random rng(8);
  for (int i = 0; i < 60; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(500)),
                        rng.UniformRange(-1000, 1000)));
  }
  const std::string blob = chunk.Serialize(ChunkFormat::kOffsetCompressed);
  EXPECT_EQ(blob.size(), Chunk::SparseBytes(chunk.num_valid()));
  EXPECT_EQ(blob.size(),
            chunk.SerializedBytes(ChunkFormat::kOffsetCompressed));
  ASSERT_OK_AND_ASSIGN(Chunk back, Chunk::Deserialize(blob));
  EXPECT_TRUE(back == chunk);
}

TEST(ChunkTest, DenseSerializeRoundTrip) {
  Chunk chunk(64);
  ASSERT_OK(chunk.Put(0, -5));
  ASSERT_OK(chunk.Put(63, 7));
  ASSERT_OK(chunk.Put(32, 0));  // zero values must stay distinguishable
  const std::string blob = chunk.Serialize(ChunkFormat::kDense);
  EXPECT_EQ(blob.size(), Chunk::DenseBytes(64));
  EXPECT_EQ(blob.size(), chunk.SerializedBytes(ChunkFormat::kDense));
  ASSERT_OK_AND_ASSIGN(Chunk back, Chunk::Deserialize(blob));
  EXPECT_TRUE(back == chunk);
  EXPECT_EQ(back.Get(32), std::optional<int64_t>(0));
  EXPECT_FALSE(back.Get(31).has_value());
}

TEST(ChunkTest, AutoPicksSmallerFormat) {
  // One cell: the 21-byte sparse layout undercuts diff-sequence's 23-byte
  // header + anchor floor.
  Chunk sparse(1000);
  ASSERT_OK(sparse.Put(3, 1));
  EXPECT_EQ(sparse.ResolveFormat(ChunkFormat::kAuto),
            ChunkFormat::kOffsetCompressed);

  // Every cell valid, values spanning the whole int64 range: diff-sequence
  // packs nothing, so the dense layout is smallest.
  Chunk dense(10);
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_OK(dense.Put(i, static_cast<int64_t>(i) - 5));
  }
  ASSERT_OK(dense.Put(0, std::numeric_limits<int64_t>::min()));
  ASSERT_OK(dense.Put(9, std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(dense.ResolveFormat(ChunkFormat::kAuto), ChunkFormat::kDense);
  // Auto serialization round-trips either way.
  ASSERT_OK_AND_ASSIGN(Chunk back,
                       Chunk::Deserialize(dense.Serialize(ChunkFormat::kAuto)));
  EXPECT_TRUE(back == dense);
}

TEST(ChunkTest, AutoPrefersPackedFormatsWhenSmaller) {
  // Both example chunks bit-pack far below the offset and dense layouts,
  // so kAuto picks diff-sequence — never a format larger than another.
  // (A near-empty chunk is different: below ~2 cells the packed header +
  // anchor floor of 23 bytes exceeds the 9+12n sparse layout and kAuto
  // keeps offset compression.)
  Chunk sparse(1000);
  for (uint32_t off = 3; off < 1000; off += 20) ASSERT_OK(sparse.Put(off, 1));
  const ChunkFormat picked = sparse.ResolveFormat(ChunkFormat::kAuto);
  EXPECT_EQ(picked, ChunkFormat::kDiffSequence)
      << ChunkFormatToString(picked);
  for (ChunkFormat f :
       {ChunkFormat::kDense, ChunkFormat::kOffsetCompressed,
        ChunkFormat::kDiffSequence}) {
    EXPECT_LE(sparse.SerializedBytes(picked), sparse.SerializedBytes(f));
  }
  const std::string blob = sparse.Serialize(ChunkFormat::kAuto);
  EXPECT_EQ(blob.size(), sparse.SerializedBytes(ChunkFormat::kAuto));
  ASSERT_OK_AND_ASSIGN(Chunk back, Chunk::Deserialize(blob));
  EXPECT_TRUE(back == sparse);

  Chunk dense(10);
  for (uint32_t i = 0; i < 10; ++i) ASSERT_OK(dense.Put(i, i));
  const ChunkFormat dense_pick = dense.ResolveFormat(ChunkFormat::kAuto);
  EXPECT_LE(dense.SerializedBytes(dense_pick),
            dense.SerializedBytes(ChunkFormat::kDense));
  ASSERT_OK_AND_ASSIGN(
      Chunk dense_back,
      Chunk::Deserialize(dense.Serialize(ChunkFormat::kAuto)));
  EXPECT_TRUE(dense_back == dense);
}

TEST(ChunkTest, DeserializeRejectsGarbage) {
  EXPECT_TRUE(Chunk::Deserialize("abc").status().IsCorruption());
  std::string blob = Chunk(5).Serialize(ChunkFormat::kOffsetCompressed);
  blob[0] = 9;  // unknown tag
  EXPECT_TRUE(Chunk::Deserialize(blob).status().IsCorruption());
}

TEST(ChunkViewTest, SparseViewMatchesChunk) {
  Chunk chunk(5000);
  Random rng(21);
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(5000)),
                        rng.UniformRange(-50, 50)));
  }
  const std::string blob = chunk.Serialize(ChunkFormat::kOffsetCompressed);
  ASSERT_OK_AND_ASSIGN(ChunkView view, ChunkView::Make(blob));
  EXPECT_TRUE(view.sparse());
  EXPECT_EQ(view.capacity(), 5000u);
  EXPECT_EQ(view.num_valid(), chunk.num_valid());
  for (uint32_t off = 0; off < 5000; ++off) {
    ASSERT_EQ(view.Get(off), chunk.Get(off)) << "offset " << off;
  }
}

TEST(ChunkViewTest, DenseViewMatchesChunk) {
  Chunk chunk(512);
  Random rng(22);
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(chunk.Put(static_cast<uint32_t>(rng.Uniform(512)),
                        rng.UniformRange(0, 9)));
  }
  const std::string blob = chunk.Serialize(ChunkFormat::kDense);
  ASSERT_OK_AND_ASSIGN(ChunkView view, ChunkView::Make(blob));
  EXPECT_FALSE(view.sparse());
  EXPECT_EQ(view.num_valid(), chunk.num_valid());
  for (uint32_t off = 0; off < 512; ++off) {
    ASSERT_EQ(view.Get(off), chunk.Get(off));
  }
}

TEST(ChunkViewTest, ForEachVisitsInOffsetOrder) {
  Chunk chunk(100);
  ASSERT_OK(chunk.Put(40, 4));
  ASSERT_OK(chunk.Put(10, 1));
  ASSERT_OK(chunk.Put(90, 9));
  for (ChunkFormat fmt :
       {ChunkFormat::kOffsetCompressed, ChunkFormat::kDense}) {
    const std::string blob = chunk.Serialize(fmt);
    ASSERT_OK_AND_ASSIGN(ChunkView view, ChunkView::Make(blob));
    std::vector<std::pair<uint32_t, int64_t>> seen;
    view.ForEach([&](uint32_t off, int64_t v) { seen.emplace_back(off, v); });
    EXPECT_EQ(seen, (std::vector<std::pair<uint32_t, int64_t>>{
                        {10, 1}, {40, 4}, {90, 9}}));
  }
}

TEST(ChunkViewTest, SparseLowerBoundMonotoneProbing) {
  Chunk chunk(1000);
  for (uint32_t off = 5; off < 1000; off += 10) ASSERT_OK(chunk.Put(off, off));
  const std::string blob = chunk.Serialize(ChunkFormat::kOffsetCompressed);
  ASSERT_OK_AND_ASSIGN(ChunkView view, ChunkView::Make(blob));
  uint32_t pos = 0;
  for (uint32_t probe = 0; probe < 1000; probe += 7) {
    pos = view.SparseLowerBound(probe, pos);
    if (pos < view.num_valid()) {
      EXPECT_GE(view.SparseEntry(pos).offset, probe);
      if (pos > 0) EXPECT_LT(view.SparseEntry(pos - 1).offset, probe);
    }
  }
  EXPECT_EQ(view.SparseLowerBound(996, 0), view.num_valid());
}

TEST(ChunkViewTest, RejectsMalformedBlobs) {
  EXPECT_TRUE(ChunkView::Make("ab").status().IsCorruption());
  std::string blob = Chunk(5).Serialize(ChunkFormat::kOffsetCompressed);
  blob[0] = 7;
  EXPECT_TRUE(ChunkView::Make(blob).status().IsCorruption());
  blob = Chunk(64).Serialize(ChunkFormat::kDense);
  blob.pop_back();
  EXPECT_TRUE(ChunkView::Make(blob).status().IsCorruption());
}

TEST(ChunkViewTest, OutOfRangeGetIsInvalid) {
  Chunk chunk(10);
  ASSERT_OK(chunk.Put(3, 33));
  ASSERT_OK_AND_ASSIGN(
      ChunkView view,
      ChunkView::Make(chunk.Serialize(ChunkFormat::kOffsetCompressed)));
  EXPECT_FALSE(view.Get(10).has_value());
  EXPECT_FALSE(view.Get(4096).has_value());
}

class ChunkedArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("carray");
    StorageOptions options;
    options.page_size = 4096;
    options.buffer_pool_pages = 64;
    ASSERT_OK(storage_.Create(file_->path(), options));
  }

  Result<ChunkedArray> BuildSmall(ChunkFormat format) {
    PARADISE_ASSIGN_OR_RETURN(ChunkLayout layout,
                              ChunkLayout::Make({6, 8}, {3, 4}));
    ArrayOptions options;
    options.chunk_format = format;
    ChunkedArray::Builder builder(&storage_, layout, options);
    // Diagonal plus a few extras.
    for (uint32_t i = 0; i < 6; ++i) {
      PARADISE_RETURN_IF_ERROR(
          builder.Put({i, i}, static_cast<int64_t>(i) * 10));
    }
    PARADISE_RETURN_IF_ERROR(builder.Put({0, 7}, -1));
    return builder.Finish();
  }

  std::unique_ptr<TempFile> file_;
  StorageManager storage_;
};

TEST_F(ChunkedArrayTest, BuildAndReadCells) {
  ASSERT_OK_AND_ASSIGN(ChunkedArray array,
                       BuildSmall(ChunkFormat::kOffsetCompressed));
  EXPECT_EQ(array.num_valid_cells(), 7u);
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v, array.GetCell({3, 3}));
  EXPECT_EQ(v, std::optional<int64_t>(30));
  ASSERT_OK_AND_ASSIGN(v, array.GetCell({0, 7}));
  EXPECT_EQ(v, std::optional<int64_t>(-1));
  ASSERT_OK_AND_ASSIGN(v, array.GetCell({1, 2}));
  EXPECT_FALSE(v.has_value());
}

TEST_F(ChunkedArrayTest, BuilderValidatesCoords) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout, ChunkLayout::Make({4}, {2}));
  ChunkedArray::Builder builder(&storage_, layout, ArrayOptions{});
  EXPECT_TRUE(builder.Put({4}, 1).IsOutOfRange());
  EXPECT_TRUE(builder.Put({0, 0}, 1).IsInvalidArgument());
}

TEST_F(ChunkedArrayTest, ScanVisitsNonEmptyChunksInOrder) {
  ASSERT_OK_AND_ASSIGN(ChunkedArray array,
                       BuildSmall(ChunkFormat::kOffsetCompressed));
  uint64_t prev = 0;
  bool first = true;
  uint64_t total = 0;
  for (uint64_t chunk_no = 0; chunk_no < array.layout().num_chunks();
       ++chunk_no) {
    ASSERT_OK_AND_ASSIGN(ChunkedArray::ChunkParts parts,
                         array.ReadChunkParts(chunk_no));
    std::optional<ChunkView> view;
    if (!parts.base.empty()) {
      ASSERT_OK_AND_ASSIGN(view, ChunkView::Make(parts.base));
    }
    uint32_t cells = 0;
    ForEachMergedCell(view ? &*view : nullptr, parts.delta,
                      [&](uint32_t, int64_t) { ++cells; });
    if (array.ChunkIsEmpty(chunk_no)) {
      EXPECT_EQ(cells, 0u) << "chunk " << chunk_no;
      continue;
    }
    if (!first) {
      EXPECT_GT(chunk_no, prev);
    }
    first = false;
    prev = chunk_no;
    EXPECT_GT(cells, 0u);
    total += cells;
  }
  EXPECT_EQ(total, 7u);
}

TEST_F(ChunkedArrayTest, PersistsAcrossReopen) {
  ObjectId meta = kInvalidObjectId;
  {
    ASSERT_OK_AND_ASSIGN(ChunkedArray array,
                         BuildSmall(ChunkFormat::kOffsetCompressed));
    meta = array.meta_oid();
  }
  ASSERT_OK(storage_.FlushAndEvictAll());
  ASSERT_OK_AND_ASSIGN(ChunkedArray array, ChunkedArray::Open(&storage_, meta));
  EXPECT_EQ(array.num_valid_cells(), 7u);
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v, array.GetCell({4, 4}));
  EXPECT_EQ(v, std::optional<int64_t>(40));
  ASSERT_OK_AND_ASSIGN(v, array.GetCell({0, 7}));
  EXPECT_EQ(v, std::optional<int64_t>(-1));
}

TEST_F(ChunkedArrayTest, DenseAndSparseFormatsAgree) {
  ASSERT_OK_AND_ASSIGN(ChunkedArray sparse,
                       BuildSmall(ChunkFormat::kOffsetCompressed));
  ASSERT_OK_AND_ASSIGN(ChunkedArray dense, BuildSmall(ChunkFormat::kDense));
  for (uint32_t i = 0; i < 6; ++i) {
    for (uint32_t j = 0; j < 8; ++j) {
      ASSERT_OK_AND_ASSIGN(std::optional<int64_t> a, sparse.GetCell({i, j}));
      ASSERT_OK_AND_ASSIGN(std::optional<int64_t> b, dense.GetCell({i, j}));
      EXPECT_EQ(a, b) << "(" << i << "," << j << ")";
    }
  }
  // Dense chunks are bigger for this sparse data — unless a forced global
  // format (the CI codec-matrix job) has collapsed both arrays onto one
  // codec, in which case the sizes are legitimately equal.
  if (!ForcedChunkFormatFromEnv().value_or(std::nullopt).has_value()) {
    EXPECT_LT(sparse.TotalDataBytes(), dense.TotalDataBytes());
  }
}

TEST_F(ChunkedArrayTest, EmptyChunksCostNothing) {
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout,
                       ChunkLayout::Make({100, 100}, {10, 10}));
  ChunkedArray::Builder builder(&storage_, layout, ArrayOptions{});
  ASSERT_OK(builder.Put({0, 0}, 1));  // exactly one chunk populated
  ASSERT_OK_AND_ASSIGN(ChunkedArray array, builder.Finish());
  EXPECT_FALSE(array.ChunkIsEmpty(0));
  EXPECT_EQ(array.ChunkValidCount(0), 1u);
  for (uint64_t c = 1; c < array.layout().num_chunks(); ++c) {
    EXPECT_TRUE(array.ChunkIsEmpty(c));
  }
  // Reading an empty chunk returns an empty chunk without I/O.
  storage_.pool()->ResetStats();
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v, array.GetCell({99, 99}));
  EXPECT_FALSE(v.has_value());
  EXPECT_EQ(storage_.pool()->stats().logical_reads, 0u);
}

TEST_F(ChunkedArrayTest, StorageAccounting) {
  ASSERT_OK_AND_ASSIGN(ChunkedArray array,
                       BuildSmall(ChunkFormat::kOffsetCompressed));
  // 4 non-empty chunks of the 6x8/3x4 grid hold the diagonal + (0,7).
  EXPECT_GT(array.TotalDataBytes(), 0u);
  ASSERT_OK_AND_ASSIGN(uint64_t pages, array.TotalPages());
  EXPECT_GT(pages, 0u);
}

}  // namespace
}  // namespace paradise
