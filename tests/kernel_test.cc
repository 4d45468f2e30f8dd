// Consolidation kernel tests (core/kernels/): magic-reciprocal division
// exactness, known-answer tests on crafted chunks (empty, single-cell,
// full-dense, max-offset-width) comparing the scalar and dispatched decode
// paths cell-for-cell with the contribution tables split at every two-block
// point, the array engine's emit order, range/morsel
// equivalence on dense bitmaps, and an executor-level fuzz asserting
// morsel-scheduled results stay bit-identical to the single-thread run at
// thread counts 1-16 and forced morsel sizes down to 1 cell, the
// base+delta merge (KernelDeltaMerge) against the re-encoded merged chunk,
// the §4.2 probe's forward cursor (KernelProbeCursor) against brute force
// and the per-candidate loop, the dispatched block unpacker (KernelUnpack)
// against ChunkView::DecodeBlock, and the outer table kept across builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "array/chunk.h"
#include "array/delta_overlay.h"
#include "common/metrics.h"
#include "array/chunk_layout.h"
#include "common/coding.h"
#include "core/aggregate.h"
#include "core/consolidate.h"
#include "core/consolidate_select.h"
#include "core/kernels/consolidate_kernel.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::ConsolidateAt;
using paradise::testing::ExactBlob;
using paradise::testing::ExpectUnpackMatchesDecodeBlock;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

// ---------------------------------------------------------------------------
// Magic-reciprocal division: exact floor division for every n < 2^32.

TEST(KernelMagic, MatchesHardwareDivision) {
  const std::vector<uint32_t> divisors = {
      2,     3,     4,     5,    6,    7,    8,    9,     10,    11,  12,
      13,    15,    16,    17,   20,   31,   32,   33,    60,    61,  64,
      97,    100,   255,   256,  257,  1000, 1023, 1024,  4095,  4096,
      65520, 65521, 65535, 65536, 1u << 20, (1u << 31) - 1, 1u << 31,
      0xFFFFFFFEu, 0xFFFFFFFFu};
  std::mt19937 rng(20260808);
  for (const uint32_t d : divisors) {
    const uint64_t magic = kernels::MagicReciprocal(d);
    std::vector<uint32_t> ns = {0,           1,          d - 1,
                                d,           d + 1,      2 * d - 1,
                                0xFFFFFFFFu, 0xFFFFFFFEu};
    for (int i = 0; i < 256; ++i) ns.push_back(rng());
    for (const uint32_t n : ns) {
      ASSERT_EQ(kernels::MagicDivide(n, magic), n / d)
          << "n=" << n << " d=" << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Direct kernel KATs against a per-cell div/mod reference.

// Restores CPUID-based dispatch when a test that forces an ISA exits.
struct IsaGuard {
  ~IsaGuard() { kernels::ForceIsa(std::nullopt); }
};

// The grouped-dimension description BuildRaw takes: dimension index (into
// row-major chunk_dims) -> contribution table of size chunk_dims[d].
using Grouped = std::vector<std::pair<size_t, std::vector<uint64_t>>>;

// Per-cell reference: flat index via hardware div/mod, sequential Add in
// offset order — the exact loop the kernels replaced.
std::vector<query::AggState> ReferenceAggregate(
    const ChunkView& view, const std::vector<uint32_t>& chunk_dims,
    const Grouped& grouped, size_t flat_size) {
  std::vector<uint64_t> stride(chunk_dims.size(), 1);
  for (size_t d = chunk_dims.size(); d-- > 1;) {
    stride[d - 1] = stride[d] * chunk_dims[d];
  }
  std::vector<query::AggState> flat(flat_size);
  view.ForEach([&](uint32_t off, int64_t value) {
    uint64_t idx = 0;
    for (const auto& [d, contribution] : grouped) {
      idx += contribution[(off / stride[d]) % chunk_dims[d]];
    }
    flat[idx].Add(value);
  });
  return flat;
}

// Runs AggregateView under `isa` with the tables split where Build splits
// them (or at `split`) and returns the flat result array.
std::vector<query::AggState> KernelAggregate(
    const ChunkView& view, const std::vector<uint32_t>& dims,
    const Grouped& grouped, size_t flat_size, kernels::Isa isa,
    std::optional<size_t> split = std::nullopt) {
  IsaGuard guard;
  kernels::ForceIsa(isa);
  kernels::KernelTables tables;
  tables.BuildRaw(dims, grouped, split);
  std::vector<query::AggState> flat(flat_size);
  kernels::AggregateView(view, tables, flat.data());
  return flat;
}

kernels::Isa DetectedIsa() {
  IsaGuard guard;
  kernels::ForceIsa(std::nullopt);
  return kernels::ActiveIsa();
}

// Asserts that scalar and dispatched agree with the reference cell-for-cell
// on `view`, with the tables split at the cheapest point (or at `split`).
void ExpectKernelMatchesReference(const ChunkView& view,
                                  const std::vector<uint32_t>& dims,
                                  const Grouped& grouped, size_t flat_size,
                                  std::optional<size_t> split = std::nullopt) {
  const std::vector<query::AggState> want =
      ReferenceAggregate(view, dims, grouped, flat_size);
  for (const kernels::Isa isa : {kernels::Isa::kScalar, DetectedIsa()}) {
    const std::vector<query::AggState> got =
        KernelAggregate(view, dims, grouped, flat_size, isa, split);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "flat index " << i << " isa " << kernels::IsaName(isa);
    }
  }
}

// A chunk with `entries` valid cells serialized in `format`, with the blob
// kept alive alongside its view.
struct TestChunk {
  std::string blob;
  std::optional<ChunkView> view;

  TestChunk(uint32_t capacity,
            const std::vector<std::pair<uint32_t, int64_t>>& entries,
            ChunkFormat format) {
    Chunk c(capacity);
    for (const auto& [off, value] : entries) EXPECT_OK(c.Put(off, value));
    blob = c.Serialize(format);
    auto made = ChunkView::Make(blob);
    EXPECT_OK(made.status());
    if (made.ok()) view = *made;
  }
};

// 3x4x5 chunk grouped on dims 0 and 2 — the TinyConfig chunk shape.
const std::vector<uint32_t> kDims345 = {3, 4, 5};
Grouped Grouped345() {
  return {{0, {0, 7, 14}}, {2, {0, 1, 2, 3, 4, 5, 6}}};
}
constexpr size_t kFlat345 = 21;

TEST(KernelKat, EmptyChunkBothFormats) {
  for (const ChunkFormat f : {ChunkFormat::kOffsetCompressed,
                              ChunkFormat::kDense}) {
    TestChunk c(60, {}, f);
    ExpectKernelMatchesReference(*c.view, kDims345, Grouped345(), kFlat345);
    // Nothing aggregated: AggregateView reports zero cells.
    kernels::KernelTables tables;
    tables.BuildRaw(kDims345, Grouped345());
    std::vector<query::AggState> flat(kFlat345);
    EXPECT_EQ(kernels::AggregateView(*c.view, tables, flat.data()), 0u);
    for (const query::AggState& s : flat) EXPECT_EQ(s.count, 0);
  }
}

TEST(KernelKat, SingleCellBothFormats) {
  for (const ChunkFormat f : {ChunkFormat::kOffsetCompressed,
                              ChunkFormat::kDense}) {
    for (const uint32_t off : {0u, 1u, 31u, 59u}) {
      TestChunk c(60, {{off, -1234567890123LL}}, f);
      ExpectKernelMatchesReference(*c.view, kDims345, Grouped345(), kFlat345);
    }
  }
}

TEST(KernelKat, FullDenseChunk) {
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < 60; ++off) {
    entries.push_back({off, static_cast<int64_t>(off) * 1000003 - 30000});
  }
  TestChunk c(60, entries, ChunkFormat::kDense);
  ASSERT_FALSE(c.view->sparse());
  ExpectKernelMatchesReference(*c.view, kDims345, Grouped345(), kFlat345);
}

TEST(KernelKat, SparseHoleyChunk) {
  std::mt19937 rng(99);
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < 60; ++off) {
    if (rng() % 3 == 0) {
      entries.push_back({off, static_cast<int64_t>(rng()) - (1LL << 31)});
    }
  }
  TestChunk c(60, entries, ChunkFormat::kOffsetCompressed);
  ASSERT_TRUE(c.view->sparse());
  ExpectKernelMatchesReference(*c.view, kDims345, Grouped345(), kFlat345);
}

TEST(KernelKat, MaxOffsetWidthChunk) {
  // Offsets spanning nearly the full uint32 range: a 65536 x 65521 chunk
  // whose capacity (4 294 639 616) sits just under 2^32. Exercises the
  // magic-division error bound where n*e/d is largest, and the 64-bit loop
  // cursor in the dense/bitmap path cannot be hit (sparse only: a dense
  // blob this size would be 34 GB).
  const std::vector<uint32_t> dims = {65536, 65521};
  const uint32_t capacity = 65536u * 65521u;  // < 2^32
  std::vector<uint64_t> contrib0(65536), contrib1(65521);
  for (size_t i = 0; i < contrib0.size(); ++i) contrib0[i] = (i % 7) * 5;
  for (size_t i = 0; i < contrib1.size(); ++i) contrib1[i] = i % 5;
  const Grouped grouped = {{0, contrib0}, {1, contrib1}};

  std::vector<std::pair<uint32_t, int64_t>> entries;
  std::mt19937_64 rng(4242);
  for (const uint32_t off :
       {0u, 1u, 65520u, 65521u, 65522u, capacity / 2, capacity - 65521,
        capacity - 2, capacity - 1}) {
    entries.push_back({off, static_cast<int64_t>(rng())});
  }
  for (int i = 0; i < 200; ++i) {
    entries.push_back({static_cast<uint32_t>(rng() % capacity),
                       static_cast<int64_t>(rng())});
  }
  TestChunk c(capacity, entries, ChunkFormat::kOffsetCompressed);
  ASSERT_TRUE(c.view->sparse());
  ExpectKernelMatchesReference(*c.view, dims, grouped, 35);
}

TEST(KernelKat, DecodeBatchScalarVsDispatchedCellForCell) {
  // Decode a batch of raw offsets under both ISAs and compare index-for-
  // index — tighter than comparing aggregated results.
  const std::vector<uint32_t> dims = {7, 11, 13};
  Grouped grouped;
  grouped.push_back({0, {}});
  grouped.push_back({1, {}});
  grouped.push_back({2, {}});
  for (size_t d = 0; d < 3; ++d) {
    grouped[d].second.resize(dims[d]);
    for (size_t i = 0; i < dims[d]; ++i) {
      grouped[d].second[i] = i * (d + 1) * 1000;
    }
  }
  std::mt19937 rng(7);
  std::vector<uint32_t> offsets(1003);  // odd length: exercises vector tails
  const uint32_t capacity = 7 * 11 * 13;
  for (auto& off : offsets) off = rng() % capacity;

  // Build's split, then each split.
  for (const std::optional<size_t> split :
       {std::optional<size_t>(), std::optional<size_t>(0),
        std::optional<size_t>(1), std::optional<size_t>(2)}) {
    kernels::KernelTables tables;
    tables.BuildRaw(dims, grouped, split);
    std::vector<uint64_t> scalar_idx(offsets.size());
    std::vector<uint64_t> active_idx(offsets.size());
    kernels::DecodeBatchScalar(offsets.data(), offsets.size(), tables,
                               scalar_idx.data());
    kernels::ActiveDecodeBatch()(offsets.data(), offsets.size(), tables,
                                 active_idx.data());
    EXPECT_EQ(scalar_idx, active_idx);

    // And the reference decode agrees.
    for (size_t i = 0; i < offsets.size(); ++i) {
      uint64_t want = 0;
      want += grouped[0].second[(offsets[i] / (11 * 13)) % 7];
      want += grouped[1].second[(offsets[i] / 13) % 11];
      want += grouped[2].second[offsets[i] % 13];
      ASSERT_EQ(scalar_idx[i], want) << "offset " << offsets[i];
    }
  }
}

TEST(KernelKat, FullCollapseAndUngroupedDims) {
  // No grouped dimensions at all: every cell lands in flat[0].
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < 60; off += 7) entries.push_back({off, 1});
  TestChunk c(60, entries, ChunkFormat::kOffsetCompressed);
  ExpectKernelMatchesReference(*c.view, kDims345, {}, 1);
  // Extent-1 grouped dimension folds into flat_base.
  const std::vector<uint32_t> dims = {1, 60};
  const Grouped grouped = {{0, {3}}, {1, std::vector<uint64_t>(60, 0)}};
  ExpectKernelMatchesReference(*c.view, dims, grouped, 4);
}

// ---------------------------------------------------------------------------
// The two contribution tables: every two-block split on full and partial
// edge chunks, degenerate shapes, a sparsely filled tile, repeated flat
// indexes and int64 limits — each against the reference under both ISAs.

const std::vector<ChunkFormat> kStoredFormats = {
    ChunkFormat::kOffsetCompressed, ChunkFormat::kDense,
    ChunkFormat::kDiffSequence};

// Dimension d grouped into cards[d] groups (index i -> group i % cards[d]),
// ungrouped where cards[d] == 0; row-major result strides.
struct ModuloGrouping {
  Grouped grouped;
  size_t flat_size = 1;

  ModuloGrouping(const std::vector<uint32_t>& dims,
                 const std::vector<uint32_t>& cards) {
    for (size_t d = dims.size(); d-- > 0;) {
      if (cards[d] == 0) continue;
      std::vector<uint64_t> contribution(dims[d]);
      for (uint32_t i = 0; i < dims[d]; ++i) {
        contribution[i] = (i % cards[d]) * flat_size;
      }
      grouped.insert(grouped.begin(), {d, std::move(contribution)});
      flat_size *= cards[d];
    }
  }
};

uint32_t Capacity(const std::vector<uint32_t>& dims) {
  uint32_t capacity = 1;
  for (const uint32_t e : dims) capacity *= e;
  return capacity;
}

// Every `step`-th offset below `capacity`, seeded values of both signs.
std::vector<std::pair<uint32_t, int64_t>> EveryNth(uint32_t capacity,
                                                   uint32_t step,
                                                   uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < capacity; off += step) {
    entries.push_back({off, static_cast<int64_t>(rng() % 2000001) - 1000000});
  }
  return entries;
}

// Every split that leaves the inner block at least two cells.
std::vector<size_t> ValidSplits(const std::vector<uint32_t>& dims) {
  std::vector<size_t> splits;
  uint32_t inner = Capacity(dims);
  for (size_t k = 0; k < dims.size() && inner >= 2; inner /= dims[k], ++k) {
    splits.push_back(k);
  }
  return splits;
}

TEST(KernelKat, FactorizedCheapestSplitOfDataSet1Tiles) {
  const std::vector<uint32_t> dims = {20, 20, 20, 10};
  const ModuloGrouping g(dims, {5, 4, 5, 3});
  kernels::KernelTables tables;
  tables.BuildRaw(dims, g.grouped);
  EXPECT_EQ(tables.split(), 2u);
  EXPECT_EQ(tables.outer_size(), 400u);
  EXPECT_EQ(tables.inner_cells(), 200u);
}

TEST(KernelKat, FactorizedEveryTwoBlockSplit) {
  // The DataSet 1 tile and partial edge chunks of it.
  for (const std::vector<uint32_t>& dims :
       {std::vector<uint32_t>{20, 20, 20, 10},
        std::vector<uint32_t>{20, 20, 7, 3},
        std::vector<uint32_t>{13, 20, 20, 10},
        std::vector<uint32_t>{20, 3, 20, 1}}) {
    for (const std::vector<uint32_t>& cards :
         {std::vector<uint32_t>{5, 4, 5, 3},
          std::vector<uint32_t>{0, 4, 0, 3}}) {
      const ModuloGrouping g(dims, cards);
      for (const ChunkFormat f : kStoredFormats) {
        TestChunk c(Capacity(dims), EveryNth(Capacity(dims), 7, 11), f);
        for (const size_t split : ValidSplits(dims)) {
          SCOPED_TRACE(::testing::Message()
                       << "dims " << ::testing::PrintToString(dims)
                       << " format " << static_cast<int>(f) << " split "
                       << split);
          ExpectKernelMatchesReference(*c.view, dims, g.grouped, g.flat_size,
                                       split);
        }
      }
    }
  }
}

TEST(KernelKat, FactorizedDegenerateShapes) {
  const std::vector<uint32_t> dims = {1, 20, 1, 10};
  const TestChunk c(200, EveryNth(200, 3, 5), ChunkFormat::kOffsetCompressed);
  // Extent-1 grouped dimensions: their contribution is flat_base, folded
  // into the outer table.
  {
    const ModuloGrouping g(dims, {1, 4, 1, 3});
    const Grouped shifted = {{0, {24}}, {1, g.grouped[1].second},
                             {2, {48}}, {3, g.grouped[3].second}};
    kernels::KernelTables tables;
    tables.BuildRaw(dims, shifted);
    EXPECT_EQ(tables.flat_base(), 72u);
    for (const size_t split : ValidSplits(dims)) {
      ExpectKernelMatchesReference(*c.view, dims, shifted, 96, split);
    }
  }
  // Zero grouped dimensions: every cell lands in flat[0].
  {
    kernels::KernelTables tables;
    tables.BuildRaw(dims, {});
    EXPECT_EQ(tables.flat_base(), 0u);
    for (const size_t split : ValidSplits(dims)) {
      ExpectKernelMatchesReference(*c.view, dims, {}, 1, split);
    }
  }
  // A single grouped dimension, innermost and outermost.
  for (const std::vector<uint32_t>& cards :
       {std::vector<uint32_t>{0, 0, 0, 3}, std::vector<uint32_t>{0, 7, 0, 0}}) {
    const ModuloGrouping g(dims, cards);
    for (const size_t split : ValidSplits(dims)) {
      ExpectKernelMatchesReference(*c.view, dims, g.grouped, g.flat_size,
                                   split);
    }
  }
  // A one-cell chunk: no split leaves the inner block two cells, so each
  // table holds one entry and the wrapped reciprocal divides offset 0.
  {
    const std::vector<uint32_t> one = {1, 1};
    const Grouped grouped = {{0, {5}}, {1, {2}}};
    kernels::KernelTables tables;
    tables.BuildRaw(one, grouped);
    EXPECT_EQ(tables.outer_size(), 1u);
    EXPECT_EQ(tables.inner_cells(), 1u);
    for (const ChunkFormat f : kStoredFormats) {
      const TestChunk cell(1, {{0, -7}}, f);
      ExpectKernelMatchesReference(*cell.view, one, grouped, 8);
    }
  }
}

TEST(KernelKat, SparselyFilledTile) {
  // 50 cells of a 20x20x20x10 tile (Data Set 2's 0.5 % density) decode
  // through the same 600 table entries as a full one.
  const std::vector<uint32_t> dims = {20, 20, 20, 10};
  const ModuloGrouping g(dims, {5, 4, 5, 3});
  const TestChunk c(8000, EveryNth(8000, 160, 3),
                    ChunkFormat::kOffsetCompressed);
  ASSERT_EQ(c.view->num_valid(), 50u);
  ExpectKernelMatchesReference(*c.view, dims, g.grouped, g.flat_size);
}

TEST(KernelKat, RepeatedFlatIndexesInOneBatch) {
  const std::vector<uint32_t> dims = {20, 20, 20, 10};
  std::vector<std::pair<uint32_t, int64_t>> entries;
  std::mt19937_64 rng(77);
  for (uint32_t off = 0; off < 600; ++off) {
    entries.push_back({off, static_cast<int64_t>(rng() % 1000) - 500});
  }
  const TestChunk c(8000, entries, ChunkFormat::kOffsetCompressed);
  // Only the outermost dimension grouped: every cell of a batch shares one
  // flat index (adjacent repeats). Only the innermost, by parity: the index
  // alternates 0, 1, 0, 1 (non-adjacent repeats). Both, mixed.
  for (const std::vector<uint32_t>& cards :
       {std::vector<uint32_t>{2, 0, 0, 0}, std::vector<uint32_t>{0, 0, 0, 2},
        std::vector<uint32_t>{2, 0, 3, 2}}) {
    const ModuloGrouping g(dims, cards);
    for (const size_t split : ValidSplits(dims)) {
      ExpectKernelMatchesReference(*c.view, dims, g.grouped, g.flat_size,
                                   split);
    }
  }
}

TEST(KernelKat, Int64LimitsWrapTheSum) {
  const std::vector<uint32_t> dims = {20, 20, 20, 10};
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  // Group g = offset % 2 (innermost dimension by parity).
  const std::vector<std::pair<uint32_t, int64_t>> entries = {
      {0, hi}, {2, hi}, {4, 1},  {6, lo},  // even: wraps past INT64_MAX
      {1, lo}, {3, lo}, {5, -1}, {7, hi}};  // odd: wraps past INT64_MIN
  const ModuloGrouping g(dims, {0, 0, 0, 2});
  for (const ChunkFormat f : kStoredFormats) {
    const TestChunk c(8000, entries, f);
    ExpectKernelMatchesReference(*c.view, dims, g.grouped, g.flat_size);
    const std::vector<query::AggState> flat = KernelAggregate(
        *c.view, dims, g.grouped, g.flat_size, DetectedIsa());
    // Modulo 2^64: hi + hi + 1 + lo == hi, and lo + lo - 1 + hi == hi - 1.
    EXPECT_EQ(flat[0].sum, hi);
    EXPECT_EQ(flat[1].sum, hi - 1);
    for (const query::AggState& s : flat) {
      EXPECT_EQ(s.count, 4u);
      EXPECT_EQ(s.min, lo);
      EXPECT_EQ(s.max, hi);
    }
  }
}

// ---------------------------------------------------------------------------
// Range splitting: any partition of the position domain aggregates exactly
// like the whole chunk — the invariant morsel scheduling rests on.

void ExpectRangePartitionMatchesWhole(const ChunkView& view,
                                      const std::vector<uint32_t>& dims,
                                      const Grouped& grouped, size_t flat_size,
                                      uint32_t piece) {
  kernels::KernelTables tables;
  tables.BuildRaw(dims, grouped);
  std::vector<query::AggState> whole(flat_size);
  const uint64_t whole_cells =
      kernels::AggregateView(view, tables, whole.data());

  std::vector<query::AggState> pieces(flat_size);
  uint64_t piece_cells = 0;
  const uint32_t positions = kernels::PositionCount(view);
  for (uint32_t begin = 0; begin < positions;) {
    const uint32_t end = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(begin) + piece, positions));
    piece_cells +=
        kernels::AggregateRange(view, begin, end, tables, pieces.data());
    begin = end;
  }
  EXPECT_EQ(piece_cells, whole_cells) << "piece=" << piece;
  for (size_t i = 0; i < flat_size; ++i) {
    ASSERT_EQ(pieces[i], whole[i]) << "flat " << i << " piece " << piece;
  }
}

TEST(KernelMorsel, DenseRangesCrossBitmapWords) {
  // Capacity 130 crosses two 64-bit bitmap words; holes stress the
  // begin/end masking of partially-covered words.
  const std::vector<uint32_t> dims = {13, 10};
  std::mt19937 rng(5);
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < 130; ++off) {
    if (off % 3 != 1 && rng() % 4 != 0) {
      entries.push_back({off, static_cast<int64_t>(rng()) - 12345});
    }
  }
  Grouped grouped = {{0, {0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 36}},
                     {1, {0, 0, 1, 1, 2, 2, 0, 1, 2, 0}}};
  TestChunk c(130, entries, ChunkFormat::kDense);
  ASSERT_FALSE(c.view->sparse());
  for (const uint32_t piece : {1u, 2u, 3u, 63u, 64u, 65u, 129u, 130u, 4096u}) {
    ExpectRangePartitionMatchesWhole(*c.view, dims, grouped, 39, piece);
  }
}

TEST(KernelMorsel, SparseRangesSplitEntries) {
  std::mt19937 rng(6);
  std::vector<std::pair<uint32_t, int64_t>> entries;
  for (uint32_t off = 0; off < 60; ++off) {
    if (rng() % 2 == 0) entries.push_back({off, static_cast<int64_t>(rng())});
  }
  TestChunk c(60, entries, ChunkFormat::kOffsetCompressed);
  ASSERT_TRUE(c.view->sparse());
  for (const uint32_t piece : {1u, 2u, 7u, 59u, 512u}) {
    ExpectRangePartitionMatchesWhole(*c.view, kDims345, Grouped345(), kFlat345,
                                     piece);
  }
}

// ---------------------------------------------------------------------------
// Delta merge: MergeChunkBlob must re-encode exactly the bytes a bulk load
// of the merged cells packs, and AggregateRange over a base chunk with the
// ingest delta superseding, plus AggregateDelta once, must equal
// AggregateView over that chunk — under every codec (LZW included), both
// ISAs, and a split of the base positions at every point (a two-morsel
// schedule).

// 10x8x5 chunk grouped on dims 0 and 2: 400 cells, so a well-filled base
// spans several 128-entry packed blocks.
const std::vector<uint32_t> kDims1085 = {10, 8, 5};
constexpr uint32_t kCap1085 = 400;
Grouped Grouped1085() {
  Grouped g = {{0, {}}, {2, {}}};
  for (uint64_t i = 0; i < 10; ++i) g[0].second.push_back(i * 5);
  for (uint64_t i = 0; i < 5; ++i) g[1].second.push_back(i);
  return g;
}
constexpr size_t kFlat1085 = 50;

using Cells = std::vector<std::pair<uint32_t, int64_t>>;

// Every third offset below `limit` skipped, values seeded.
Cells HoleyBase(uint32_t limit, uint32_t seed) {
  std::mt19937 rng(seed);
  Cells out;
  for (uint32_t off = 0; off < limit; ++off) {
    if (off % 3 != 2) out.push_back({off, static_cast<int64_t>(rng()) - 7});
  }
  return out;
}

void ExpectDeltaMergeMatchesReencode(const Cells& base_cells,
                                     const Cells& delta_cells) {
  ChunkDelta delta;
  for (const auto& [off, value] : delta_cells) {
    delta.cells.push_back(ChunkEntry{off, value});
  }
  ASSERT_TRUE(std::is_sorted(delta.cells.begin(), delta.cells.end(),
                             [](const ChunkEntry& a, const ChunkEntry& b) {
                               return a.offset < b.offset;
                             }));
  kernels::Isa detected;
  {
    IsaGuard guard;
    kernels::ForceIsa(std::nullopt);
    detected = kernels::ActiveIsa();
  }
  // The merged cells a bulk load would pack: base, then delta over it.
  std::map<uint32_t, int64_t> merged_cells(base_cells.begin(),
                                           base_cells.end());
  for (const auto& [off, value] : delta_cells) merged_cells[off] = value;
  Chunk want_chunk(kCap1085);
  for (const auto& [off, value] : merged_cells) {
    ASSERT_OK(want_chunk.AppendSorted(off, value));
  }
  for (const ChunkFormat f :
       {ChunkFormat::kDense, ChunkFormat::kOffsetCompressed,
        ChunkFormat::kDiffSequence, ChunkFormat::kLzwDense}) {
    // The base as the directory stores it, LZW unwrapped as ReadChunkParts
    // hands it out: no bytes when it has no cells.
    Chunk base_chunk(kCap1085);
    for (const auto& [off, value] : base_cells) {
      ASSERT_OK(base_chunk.Put(off, value));
    }
    std::string base;
    if (!base_chunk.empty()) {
      ASSERT_OK_AND_ASSIGN(base, UnwrapChunkBlob(base_chunk.Serialize(f)));
    }
    uint32_t merged_valid = 0;
    ASSERT_OK_AND_ASSIGN(std::string merged,
                         MergeChunkBlob(base, delta, kCap1085, f,
                                        &merged_valid));
    ASSERT_EQ(merged, want_chunk.Serialize(f)) << ChunkFormatToString(f);
    ASSERT_EQ(merged_valid, want_chunk.num_valid());
    ASSERT_OK_AND_ASSIGN(merged, UnwrapChunkBlob(std::move(merged)));
    ASSERT_OK_AND_ASSIGN(ChunkView merged_view, ChunkView::Make(merged));
    std::optional<ChunkView> base_view;
    if (!base.empty()) {
      ASSERT_OK_AND_ASSIGN(base_view, ChunkView::Make(base));
    }
    const uint32_t positions =
        base_view ? kernels::PositionCount(*base_view) : 0;
    for (const kernels::Isa isa : {kernels::Isa::kScalar, detected}) {
      IsaGuard guard;
      kernels::ForceIsa(isa);
      kernels::KernelTables tables;
      tables.BuildRaw(kDims1085, Grouped1085());
      std::vector<query::AggState> want(kFlat1085);
      ASSERT_EQ(kernels::AggregateView(merged_view, tables, want.data()),
                merged_valid);
      for (uint32_t split = 0; split <= positions; ++split) {
        std::vector<query::AggState> got(kFlat1085);
        uint64_t cells = kernels::AggregateDelta(delta, tables, got.data());
        if (base_view) {
          cells += kernels::AggregateRange(*base_view, 0, split, tables,
                                           got.data(), &delta);
          cells += kernels::AggregateRange(*base_view, split, positions,
                                           tables, got.data(), &delta);
        }
        const std::string where = std::string(ChunkFormatToString(f)) + " " +
                                  std::string(kernels::IsaName(isa)) +
                                  " split " + std::to_string(split);
        ASSERT_EQ(cells, merged_valid) << where;
        for (size_t i = 0; i < kFlat1085; ++i) {
          ASSERT_EQ(got[i], want[i]) << where << " flat " << i;
        }
      }
    }
  }
}

TEST(KernelDeltaMerge, DeltaOnEmptyBase) {
  ExpectDeltaMergeMatchesReencode(
      {}, {{0, 5}, {17, -3}, {200, 1LL << 40}, {399, -(1LL << 50)}});
}

TEST(KernelDeltaMerge, UpsertsFirstAndLastBaseCell) {
  const Cells base = HoleyBase(kCap1085, 11);
  ExpectDeltaMergeMatchesReencode(
      base, {{base.front().first, 1000}, {base.back().first, -1000}});
  // Also with an insert into a hole between them.
  ExpectDeltaMergeMatchesReencode(base, {{base.front().first, 1000},
                                         {2, 77},
                                         {base.back().first, -1000}});
}

TEST(KernelDeltaMerge, DeltaPastLastBaseOffset) {
  const Cells base = HoleyBase(300, 12);
  ExpectDeltaMergeMatchesReencode(base, {{300, 9}, {351, -9}, {399, 99}});
}

TEST(KernelDeltaMerge, DeltaBeyondCapacityIsOutOfRange) {
  const Cells base = HoleyBase(kCap1085, 14);
  Chunk base_chunk(kCap1085);
  for (const auto& [off, value] : base) ASSERT_OK(base_chunk.Put(off, value));
  for (const Cells& delta_cells :
       {Cells{{kCap1085, 1}}, Cells{{3, 1}, {kCap1085 + 7, 2}}}) {
    ChunkDelta delta;
    for (const auto& [off, value] : delta_cells) {
      delta.cells.push_back(ChunkEntry{off, value});
    }
    for (const std::string& b :
         {std::string(), base_chunk.Serialize(ChunkFormat::kDiffSequence)}) {
      EXPECT_TRUE(MergeChunkBlob(b, delta, kCap1085,
                                 ChunkFormat::kOffsetCompressed, nullptr)
                      .status()
                      .IsOutOfRange());
    }
  }
}

TEST(KernelDeltaMerge, DeltaCoversEveryBaseCell) {
  const Cells base = HoleyBase(kCap1085, 13);
  Cells delta;
  for (const auto& [off, value] : base) delta.push_back({off, -value});
  ExpectDeltaMergeMatchesReencode(base, delta);
  // Every base cell plus every hole: the merged chunk is full.
  Cells full;
  for (uint32_t off = 0; off < kCap1085; ++off) full.push_back({off, off});
  ExpectDeltaMergeMatchesReencode(base, full);
}

// ---------------------------------------------------------------------------
// Emit order: FlatToGroupedResult walks the flat array row-major over the
// grouped dimensions, which is SortCanonical's lexicographic order, so the
// array engine's rows come out strictly increasing without a sort.

TEST(KernelEmit, RowsStrictlyIncreasingForEveryRollUpShape) {
  gen::GenConfig config;
  config.dims.resize(4);
  const uint32_t sizes[4] = {6, 8, 10, 4};
  const uint32_t cards1[4] = {3, 4, 5, 2};
  for (size_t d = 0; d < 4; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {cards1[d], 2};
  }
  config.num_valid_cells = 900;
  config.seed = 19;
  config.chunk_extents = {3, 4, 5, 2};
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  for (const ChunkFormat f :
       {ChunkFormat::kOffsetCompressed, ChunkFormat::kDense,
        ChunkFormat::kAuto, ChunkFormat::kLzwDense,
        ChunkFormat::kDiffSequence}) {
    TempFile file("emit_order");
    DatabaseOptions options = SmallDbOptions();
    options.array.chunk_format = f;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         BuildDatabaseFromDataset(file.path(), data, options));
    // Every shape: each dimension grouped by level 1, by level 2, or
    // collapsed (3^4 = 81).
    for (int code = 0; code < 81; ++code) {
      query::ConsolidationQuery q;
      q.dims.resize(4);
      for (int d = 0, rest = code; d < 4; ++d, rest /= 3) {
        if (rest % 3 < 2) q.dims[d].group_by_col = rest % 3 + 1;
      }
      const query::GroupedResult truth = BruteForce(data, q);
      for (const size_t threads : {1u, 4u}) {
        ASSERT_OK_AND_ASSIGN(query::GroupedResult got,
                             ConsolidateAt(*db->olap(), q, threads));
        const std::string where = std::string(ChunkFormatToString(f)) +
                                  " shape " + std::to_string(code) +
                                  " threads=" + std::to_string(threads);
        ASSERT_FALSE(got.rows().empty()) << where;
        for (size_t i = 1; i < got.rows().size(); ++i) {
          const std::span<const int32_t> prev = got.rows()[i - 1].group;
          const std::span<const int32_t> cur = got.rows()[i].group;
          ASSERT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(),
                                                   cur.begin(), cur.end()))
              << where << " row " << i;
        }
        ASSERT_TRUE(got.SameAs(truth)) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level fuzz: morsel scheduling and ISA dispatch never change the
// GroupedResult bit pattern.

class KernelMorselFuzz : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("kernel_fuzz");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig(400, 61)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_, SmallDbOptions()));
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_P(KernelMorselFuzz, MorselSizesMatchSerial) {
  const size_t threads = GetParam();
  std::vector<query::ConsolidationQuery> queries;
  queries.push_back(gen::Query1(3));
  {
    query::ConsolidationQuery q;
    q.dims.resize(3);
    q.dims[1].group_by_col = 2;
    queries.push_back(q);
  }
  {
    query::ConsolidationQuery q;
    q.dims.resize(3);  // full collapse
    queries.push_back(q);
  }
  for (const query::ConsolidationQuery& q : queries) {
    ASSERT_OK_AND_ASSIGN(query::GroupedResult serial,
                         ArrayConsolidate(*db_->olap(), q));
    EXPECT_TRUE(serial.SameAs(BruteForce(data_, q)));
    for (const uint32_t min_cells : {1u, 3u, 64u, UINT32_MAX}) {
      ArrayConsolidateOptions mo;
      mo.min_cells = min_cells;
      ArrayConsolidateStats stats;
      ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                           ConsolidateAt(*db_->olap(), q, threads, &stats, mo));
      EXPECT_TRUE(parallel.SameAs(serial))
          << "threads=" << threads << " min_cells=" << min_cells;
      // Every chunk hands out exactly 1 + splits-from-it morsels.
      EXPECT_EQ(stats.morsels, stats.chunks_read + stats.morsel_splits);
      if (min_cells == UINT32_MAX || threads == 1) {
        // Whole-chunk cursor mode; a lone worker has nobody to steal.
        EXPECT_EQ(stats.morsel_splits, 0u);
      } else if (min_cells == 1 && stats.chunks_read > 0) {
        EXPECT_GT(stats.morsel_splits, 0u);  // 60-cell chunks must split
      }
    }
  }
}

TEST_P(KernelMorselFuzz, SelectionMorselSizesMatchSerial) {
  const size_t threads = GetParam();
  std::vector<query::ConsolidationQuery> queries;
  queries.push_back(gen::Query2(3));
  queries.push_back(gen::Query3(3, 2));
  {
    query::ConsolidationQuery q = gen::Query1(3);
    query::Selection s;
    s.attr_col = 1;
    s.values = {query::Literal{gen::AttrValue(0, 1, 0)},
                query::Literal{gen::AttrValue(0, 1, 1)}};
    q.dims[0].selections.push_back(std::move(s));
    queries.push_back(std::move(q));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const query::ConsolidationQuery& q = queries[i];
    ArrayConsolidateStats serial_stats;
    ASSERT_OK_AND_ASSIGN(query::GroupedResult serial,
                         ArrayConsolidate(*db_->olap(), q, nullptr,
                                          &serial_stats));
    EXPECT_TRUE(serial.SameAs(BruteForce(data_, q)));
    for (const uint32_t min_cells : {1u, 3u, 64u, UINT32_MAX}) {
      ArrayConsolidateOptions mo;
      mo.min_cells = min_cells;
      ArrayConsolidateStats stats;
      ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                           ConsolidateAt(*db_->olap(), q, threads, &stats, mo));
      EXPECT_TRUE(parallel.SameAs(serial))
          << "query " << i << " threads=" << threads
          << " min_cells=" << min_cells;
      // Chunk reads and matched cells are split-invariant (candidates are
      // not: sparse early-outs apply per piece).
      EXPECT_EQ(stats.chunks_read, serial_stats.chunks_read);
      EXPECT_EQ(stats.hits, serial_stats.hits);
      EXPECT_EQ(stats.morsels, stats.chunks_read + stats.morsel_splits);
    }
  }
}

TEST_P(KernelMorselFuzz, ForcedScalarMatchesDispatched) {
  const size_t threads = GetParam();
  IsaGuard guard;
  ArrayConsolidateOptions mo;
  mo.min_cells = 5;
  for (const query::ConsolidationQuery& q : {gen::Query1(3), gen::Query2(3)}) {
    std::vector<query::GroupedResult> results;
    for (const bool force_scalar : {true, false}) {
      if (force_scalar) {
        kernels::ForceIsa(kernels::Isa::kScalar);
      } else {
        kernels::ForceIsa(std::nullopt);
      }
      ASSERT_OK_AND_ASSIGN(query::GroupedResult r,
                           ConsolidateAt(*db_->olap(), q, threads, nullptr,
                                         mo));
      results.push_back(std::move(r));
    }
    EXPECT_TRUE(results[0].SameAs(results[1])) << "threads=" << threads;
  }
}

TEST_P(KernelMorselFuzz, MorselCancellationStopsQuery) {
  const size_t threads = GetParam();
  CancellationToken token;
  token.RequestCancel();
  ArrayConsolidateOptions mo;
  mo.min_cells = 1;
  mo.cancel = &token;
  for (const query::ConsolidationQuery& q : {gen::Query1(3), gen::Query2(3)}) {
    EXPECT_TRUE(ConsolidateAt(*db_->olap(), q, threads, nullptr, mo)
                    .status()
                    .IsCancelled());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelMorselFuzz,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ---------------------------------------------------------------------------
// §4.2 probe cursor: ProbeSelectionRange over one chunk against a brute-force
// scan of the merged (base + delta) chunk, and its `candidates`/`hits`
// counters against the per-candidate lower-bound loop the forward cursor
// replaced — under every stored codec, with and without a delta, whole and at
// every two-way split of the first wide dimension's slice (the morsel split
// domain, core/morsel.h).

// One chunk spanning the whole array: `dims` are both the array's and the
// chunk's sides, so an offset is the row-major index of its coordinates.
struct ProbeCase {
  std::vector<uint32_t> dims;
  std::vector<std::vector<uint32_t>> lists;  // sorted selected indices per dim
  Cells base;                                // sorted by offset
  Cells delta;                               // sorted by offset
};

struct ProbeOutcome {
  std::vector<query::AggState> flat;
  uint64_t candidates = 0;
  uint64_t hits = 0;
};

// Every dimension is grouped, index i mapping to group i % kProbeGroups.
constexpr int32_t kProbeGroups = 3;

struct ProbeGrouping {
  GroupSpec spec;
  std::vector<std::vector<int32_t>> maps;
  std::vector<const std::vector<int32_t>*> level_maps;

  explicit ProbeGrouping(const std::vector<uint32_t>& dims)
      : maps(dims.size()) {
    const size_t n = dims.size();
    for (size_t d = 0; d < n; ++d) {
      for (uint32_t i = 0; i < dims[d]; ++i) {
        maps[d].push_back(static_cast<int32_t>(i) % kProbeGroups);
      }
      spec.grouped_dims.push_back(d);
      spec.group_cols.push_back(1);
      spec.cardinalities.push_back(kProbeGroups);
      level_maps.push_back(&maps[d]);
    }
    spec.strides.assign(n, 1);
    for (size_t d = n; d-- > 1;) {
      spec.strides[d - 1] = spec.strides[d] * kProbeGroups;
    }
    spec.num_groups = spec.strides[0] * kProbeGroups;
  }

  uint64_t FlatIndex(const std::vector<uint32_t>& coords) const {
    uint64_t idx = 0;
    for (size_t d = 0; d < coords.size(); ++d) {
      idx += static_cast<uint64_t>(maps[d][coords[d]]) * spec.strides[d];
    }
    return idx;
  }
};

std::vector<uint32_t> OffsetToCoords(const std::vector<uint32_t>& dims,
                                     uint32_t offset) {
  std::vector<uint32_t> coords(dims.size());
  for (size_t d = dims.size(); d-- > 0;) {
    coords[d] = offset % dims[d];
    offset /= dims[d];
  }
  return coords;
}

// The loop the cursor replaced, over the decoded entries: each candidate is
// looked up in the delta, then (on a miss) by lower bound in the base from
// the last position; a sparse base stops the odometer once both are passed.
ProbeOutcome ReferenceProbe(const ProbeCase& c, const ProbeGrouping& g,
                            bool dense_base, bool with_delta,
                            const std::vector<uint32_t>& begin,
                            const std::vector<uint32_t>& end) {
  ProbeOutcome out;
  out.flat.resize(g.spec.num_groups);
  const size_t n = c.dims.size();
  const bool has_base = !c.base.empty();
  const bool sparse = !has_base || !dense_base;
  const auto below = [](const std::pair<uint32_t, int64_t>& e, uint32_t o) {
    return e.first < o;
  };
  auto base_pos = c.base.begin();
  auto next = c.delta.begin();
  const auto next_end = with_delta ? c.delta.end() : c.delta.begin();
  std::vector<uint32_t> pos = begin;
  std::vector<uint32_t> coords(n);
  for (;;) {
    uint32_t offset = 0;
    for (size_t d = 0; d < n; ++d) {
      coords[d] = c.lists[d][pos[d]];
      offset = offset * c.dims[d] + coords[d];
    }
    ++out.candidates;
    std::optional<int64_t> hit;
    if (with_delta) {
      next = std::lower_bound(next, next_end, offset, below);
      if (next != next_end && next->first == offset) hit = next->second;
    }
    if (!hit.has_value() && has_base) {
      base_pos = std::lower_bound(base_pos, c.base.end(), offset, below);
      if (base_pos != c.base.end() && base_pos->first == offset) {
        hit = base_pos->second;
      }
    }
    if (hit.has_value()) {
      out.flat[g.FlatIndex(coords)].Add(*hit);
      ++out.hits;
    }
    if (sparse && base_pos == c.base.end() && next == next_end) break;
    size_t d = n - 1;
    while (++pos[d] == end[d]) {
      pos[d] = begin[d];
      if (d == 0) return out;
      --d;
    }
  }
  return out;
}

// Ground truth: every cell of the merged chunk whose coordinates all lie in
// the selected lists.
ProbeOutcome BruteForceProbe(const ProbeCase& c, const ProbeGrouping& g,
                             bool with_delta) {
  std::map<uint32_t, int64_t> merged(c.base.begin(), c.base.end());
  if (with_delta) {
    for (const auto& [off, value] : c.delta) merged[off] = value;
  }
  ProbeOutcome out;
  out.flat.resize(g.spec.num_groups);
  for (const auto& [off, value] : merged) {
    const std::vector<uint32_t> coords = OffsetToCoords(c.dims, off);
    bool selected = true;
    for (size_t d = 0; d < coords.size() && selected; ++d) {
      selected = std::binary_search(c.lists[d].begin(), c.lists[d].end(),
                                    coords[d]);
    }
    if (selected) {
      out.flat[g.FlatIndex(coords)].Add(value);
      ++out.hits;
    }
  }
  return out;
}

void ExpectSameFlat(const std::vector<query::AggState>& got,
                    const std::vector<query::AggState>& want,
                    const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << where << " flat " << i;
  }
}

// Runs ProbeSelectionRange on `c` under every codec, with and without the
// delta, whole and split in two at every point of the first wide
// dimension's slice.
void ExpectProbeMatchesReference(const ProbeCase& c) {
  const size_t n = c.dims.size();
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout, ChunkLayout::Make(c.dims, c.dims));
  ASSERT_EQ(layout.num_chunks(), 1u);
  uint64_t capacity = 1;
  for (const uint32_t side : c.dims) capacity *= side;
  const ProbeGrouping g(c.dims);
  select_detail::SelectionPlan plan;
  plan.lists = c.lists;
  plan.level_maps = g.level_maps;
  select_detail::SelectionChunkWork work;
  work.chunk_no = 0;
  work.slice_begin.assign(n, 0);
  for (const auto& list : c.lists) {
    work.slice_end.push_back(static_cast<uint32_t>(list.size()));
  }
  // The morsel split domain: the first dimension with two or more entries.
  size_t wide = 0;
  while (wide < n && work.slice_end[wide] < 2) ++wide;
  if (wide == n) wide = 0;

  ChunkDelta delta;
  for (const auto& [off, value] : c.delta) {
    delta.cells.push_back(ChunkEntry{off, value});
  }
  for (const bool with_delta : {false, true}) {
    if (with_delta && c.delta.empty()) continue;
    if (!with_delta && c.base.empty()) continue;  // the executor never probes
    const ProbeOutcome truth = BruteForceProbe(c, g, with_delta);
    for (const ChunkFormat f :
         {ChunkFormat::kOffsetCompressed, ChunkFormat::kDense,
          ChunkFormat::kDiffSequence}) {
      Chunk chunk(static_cast<uint32_t>(capacity));
      for (const auto& [off, value] : c.base) ASSERT_OK(chunk.Put(off, value));
      const std::string blob =
          chunk.empty() ? std::string() : chunk.Serialize(f);
      std::optional<ChunkView> view;
      if (!blob.empty()) {
        ASSERT_OK_AND_ASSIGN(view, ChunkView::Make(blob));
      }
      const bool dense_base = view && !view->sparse();
      // Cut points: none (the whole slice), then every interior point.
      for (uint32_t cut = 0; cut < work.slice_end[wide]; ++cut) {
        std::vector<std::pair<uint32_t, uint32_t>> pieces;
        if (cut == 0) {
          pieces.push_back({0, work.slice_end[wide]});
        } else {
          pieces.push_back({0, cut});
          pieces.push_back({cut, work.slice_end[wide]});
        }
        ProbeOutcome want;
        want.flat.resize(g.spec.num_groups);
        std::vector<query::AggState> got(g.spec.num_groups);
        ArrayConsolidateStats stats;
        for (const auto& [lo, hi] : pieces) {
          select_detail::SelectionChunkWork piece = work;
          piece.slice_begin[wide] = lo;
          piece.slice_end[wide] = hi;
          ASSERT_OK(select_detail::ProbeSelectionRange(
              layout, g.spec, plan, piece, view ? &*view : nullptr,
              with_delta ? &delta : nullptr, &got, &stats));
          const ProbeOutcome ref =
              ReferenceProbe(c, g, dense_base, with_delta, piece.slice_begin,
                             piece.slice_end);
          want.candidates += ref.candidates;
          want.hits += ref.hits;
          for (size_t i = 0; i < ref.flat.size(); ++i) {
            if (ref.flat[i].count > 0) want.flat[i].Merge(ref.flat[i]);
          }
        }
        const std::string where =
            std::string(ChunkFormatToString(f)) +
            (with_delta ? " +delta" : "") + " cut " + std::to_string(cut);
        EXPECT_EQ(stats.candidates, want.candidates) << where;
        EXPECT_EQ(stats.hits, want.hits) << where;
        EXPECT_EQ(stats.hits, truth.hits) << where;
        ExpectSameFlat(got, truth.flat, where);
        ExpectSameFlat(want.flat, truth.flat, where + " (reference)");
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// Base cells at the offsets below `limit` that `keep` accepts, seeded values.
template <typename Keep>
Cells BaseWhere(uint32_t limit, uint32_t seed, Keep keep) {
  std::mt19937 rng(seed);
  Cells out;
  for (uint32_t off = 0; off < limit; ++off) {
    if (keep(off, rng)) out.push_back({off, static_cast<int64_t>(rng()) - 99});
  }
  return out;
}

// Candidate offsets aimed at the packed block structure of `base`
// (kPackedChunkBlock entries a block): every third block is left out whole;
// each other block gets its first and last entry, a middle entry and the
// hole after it, the offset after its last entry and the one before the
// next block's anchor (in the gap between the blocks when there is one).
// Then offsets before the first entry and past the last (the early-out).
std::vector<uint32_t> BlockAimedCandidates(const Cells& base,
                                           uint32_t capacity) {
  std::vector<uint32_t> out = {0};
  const size_t blocks = (base.size() + kPackedChunkBlock - 1) /
                        kPackedChunkBlock;
  for (size_t b = 0; b < blocks; ++b) {
    if (b % 3 == 2) continue;
    const size_t first = b * kPackedChunkBlock;
    const size_t last = std::min(base.size(), first + kPackedChunkBlock) - 1;
    const size_t mid = (first + last) / 2;
    for (const uint32_t off :
         {base[first].first, base[last].first, base[mid].first,
          base[mid].first + 1, base[last].first + 1}) {
      out.push_back(off);
    }
    if (last + 1 < base.size()) out.push_back(base[last + 1].first - 1);
  }
  if (!base.empty()) {
    out.push_back(base.back().first + 1);
    out.push_back(base.back().first + 2);
  }
  out.push_back(capacity - 1);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  while (!out.empty() && out.back() >= capacity) out.pop_back();
  return out;
}

// Upserts every 37th base cell, inserts into a few holes the candidates
// probe, and adds cells past the last base entry.
Cells DeltaFor(const Cells& base, const std::vector<uint32_t>& candidates,
               uint32_t capacity) {
  std::map<uint32_t, int64_t> cells;
  for (size_t i = 0; i < base.size(); i += 37) {
    cells[base[i].first] = -base[i].second - 1;
  }
  std::map<uint32_t, int64_t> stored(base.begin(), base.end());
  int inserted = 0;
  for (size_t i = 0; i < candidates.size() && inserted < 20; i += 3) {
    if (!stored.contains(candidates[i])) {
      cells[candidates[i]] = 1000 + inserted++;
    }
  }
  const uint32_t past = base.empty() ? 0 : base.back().first + 1;
  for (const uint32_t off : {past, past + 3}) {
    if (off < capacity) cells[off] = 7;
  }
  return Cells(cells.begin(), cells.end());
}

ProbeCase OneWideDimCase(uint32_t capacity, Cells base) {
  ProbeCase c;
  c.dims = {capacity, 1};
  c.lists = {BlockAimedCandidates(base, capacity), {0}};
  c.delta = DeltaFor(base, c.lists[0], capacity);
  c.base = std::move(base);
  return c;
}

TEST(KernelProbeCursor, SingleBlockChunk) {
  // Under one packed block of cells, not starting at offset 0.
  const Cells base = BaseWhere(90, 21, [](uint32_t off, std::mt19937&) {
    return off >= 3 && off % 4 != 1;
  });
  ASSERT_LE(base.size(), kPackedChunkBlock);
  ExpectProbeMatchesReference(OneWideDimCase(100, base));
}

TEST(KernelProbeCursor, BlockBoundariesGapsAndSkippedBlocks) {
  // A 65536-cell chunk with holes: most blocks end before the next anchor,
  // so the candidates land in the gaps between blocks as well as on them.
  const Cells base =
      BaseWhere(60000, 22, [](uint32_t off, std::mt19937& rng) {
        return off >= 10 && off % 7 != 3 && rng() % 5 != 0;
      });
  ASSERT_GT(base.size(), 100 * kPackedChunkBlock);
  ExpectProbeMatchesReference(OneWideDimCase(65536, base));
}

TEST(KernelProbeCursor, AdjacentBlocksWithoutGaps) {
  // Every offset valid: each block's last offset is one below the next
  // anchor, and a run of zero-bit gaps is what diff-sequence stores.
  const Cells base =
      BaseWhere(3000, 23, [](uint32_t, std::mt19937&) { return true; });
  ExpectProbeMatchesReference(OneWideDimCase(65536, base));
}

TEST(KernelProbeCursor, DeltaOnEmptyBase) {
  ProbeCase c = OneWideDimCase(65536, {});
  c.delta = {{0, 1}, {5, 2}, {60000, 3}, {65535, 4}};
  c.lists[0] = {0, 4, 5, 6, 59999, 60000, 65535};
  ExpectProbeMatchesReference(c);
}

TEST(KernelProbeCursor, OdometerOverThreeDims) {
  // Random selections on a 16x64x64 (65536-cell) chunk and a 4x5x6
  // single-block one; the second case selects one index on dimension 0, so
  // the split domain moves to dimension 1.
  std::mt19937 rng(24);
  const auto pick = [&rng](uint32_t side, uint32_t count) {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < side; ++i) {
      if (rng() % side < count) out.push_back(i);
    }
    if (out.empty()) out.push_back(side / 2);
    return out;
  };
  for (const auto& [dims, picks] :
       std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>{
           {{16, 64, 64}, {5, 9, 12}},
           {{16, 64, 64}, {1, 20, 7}},
           {{4, 5, 6}, {3, 4, 4}}}) {
    ProbeCase c;
    c.dims = dims;
    for (size_t d = 0; d < dims.size(); ++d) {
      c.lists.push_back(pick(dims[d], picks[d]));
    }
    const uint32_t capacity = dims[0] * dims[1] * dims[2];
    c.base = BaseWhere(capacity - capacity / 5, 25,
                       [](uint32_t, std::mt19937& r) { return r() % 4 == 0; });
    std::vector<uint32_t> every(capacity);
    for (uint32_t i = 0; i < capacity; ++i) every[i] = i;
    std::shuffle(every.begin(), every.end(), rng);
    every.resize(capacity / 50);
    std::sort(every.begin(), every.end());
    c.delta = DeltaFor(c.base, every, capacity);
    ExpectProbeMatchesReference(c);
  }
}

// The executor over a stored 65536-cell chunk (one chunk of a 64x32x32
// cube) under every codec, thread count and morsel size, against the
// brute-force evaluation of the generated data.
TEST(KernelProbeCursor, ExecutorMatchesBruteForceOnWideChunks) {
  gen::GenConfig config;
  config.dims.resize(3);
  const uint32_t sizes[3] = {64, 32, 32};
  for (size_t d = 0; d < 3; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {8, 2};
  }
  config.num_valid_cells = 7000;
  config.seed = 26;
  config.chunk_extents = {64, 32, 32};
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].group_by_col = 1;
  q.dims[2].group_by_col = 2;
  for (size_t d = 0; d < 3; ++d) {
    query::Selection s;
    s.attr_col = 1;
    for (const uint32_t code : {1u, 4u, 6u}) {
      if (d == 1 && code == 4) continue;
      s.values.push_back(query::Literal{gen::AttrValue(d, 1, code)});
    }
    q.dims[d].selections.push_back(std::move(s));
  }
  const query::GroupedResult truth = BruteForce(data, q);
  uint64_t matched = 0;
  for (const query::ResultRow& row : truth.rows()) matched += row.agg.count;
  ASSERT_GT(matched, 0u);
  std::optional<uint64_t> sparse_candidates;
  for (const ChunkFormat f :
       {ChunkFormat::kOffsetCompressed, ChunkFormat::kDense,
        ChunkFormat::kDiffSequence}) {
    TempFile file("probe_cursor");
    DatabaseOptions options = SmallDbOptions();
    options.array.chunk_format = f;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, options));
    for (const size_t threads : {1u, 2u, 4u}) {
      for (const uint32_t min_cells : {1u, 50u, UINT32_MAX}) {
        ArrayConsolidateOptions mo;
        mo.min_cells = min_cells;
        ArrayConsolidateStats stats;
        ASSERT_OK_AND_ASSIGN(
            query::GroupedResult got,
            ConsolidateAt(*db->olap(), q, threads, &stats, mo));
        const std::string where = std::string(ChunkFormatToString(f)) +
                                  " threads=" + std::to_string(threads) +
                                  " min_cells=" + std::to_string(min_cells);
        EXPECT_TRUE(got.SameAs(truth)) << where;
        EXPECT_EQ(stats.hits, matched) << where;
        EXPECT_EQ(stats.chunks_read, 1u) << where;
        if (min_cells == UINT32_MAX && f != ChunkFormat::kDense) {
          // Whole-chunk probes stop at the same candidate on every sparse
          // codec.
          if (!sparse_candidates) sparse_candidates = stats.candidates;
          EXPECT_EQ(stats.candidates, *sparse_candidates) << where;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The dispatched block unpacker (KernelUnpack) against the portable
// ChunkView::DecodeBlock, under forced scalar and AVX2, on blobs held in
// exactly-sized heap buffers.

// A diff-sequence blob of `count` entries whose header declares `gap_bits`
// and `val_bits`, with random anchors, value bias and stream bytes.
// ChunkView::Make checks sizes, not contents, and the unpackers must agree
// on any bytes: every field has all its bits random, and offset sums wrap
// mod 2^32 alike.
ExactBlob RandomDiffSeqBlob(uint32_t count, unsigned gap_bits,
                            unsigned val_bits, std::mt19937_64* rng) {
  const uint64_t nb = (count + kPackedChunkBlock - 1) / kPackedChunkBlock;
  const uint64_t gap_bytes = ((count - nb) * gap_bits + 7) / 8;
  const uint64_t val_bytes = (uint64_t{count} * val_bits + 7) / 8;
  std::string blob(19 + 4 * nb + gap_bytes + val_bytes, '\0');
  for (char& c : blob) c = static_cast<char>((*rng)());
  blob[0] = 3;  // the diff-sequence tag
  EncodeFixed32(blob.data() + 1, 0xFFFFFFFFu);
  EncodeFixed32(blob.data() + 5, count);
  blob[9] = static_cast<char>(gap_bits);
  blob[10] = static_cast<char>(val_bits);
  return ExactBlob(blob);
}

void ExpectRandomBlobUnpacks(uint32_t count, unsigned gap_bits,
                             unsigned val_bits, std::mt19937_64* rng) {
  SCOPED_TRACE("count " + std::to_string(count) + " gap_bits " +
               std::to_string(gap_bits) + " val_bits " +
               std::to_string(val_bits));
  const ExactBlob blob = RandomDiffSeqBlob(count, gap_bits, val_bits, rng);
  ASSERT_OK_AND_ASSIGN(const ChunkView view, ChunkView::Make(blob.view()));
  ASSERT_EQ(view.encoding(), ChunkEncoding::kDiffSeq);
  ExpectUnpackMatchesDecodeBlock(view);
}

// Nine blocks, the last of nine entries: widths above 25 bits take the
// portable path, as do the fields at each stream's end.
TEST(KernelUnpack, EveryGapAndValueWidth) {
  std::mt19937_64 rng(2101);
  for (unsigned gap_bits = 0; gap_bits <= 32; ++gap_bits) {
    for (unsigned val_bits = 0; val_bits <= 64; ++val_bits) {
      ExpectRandomBlobUnpacks(8 * kPackedChunkBlock + 9, gap_bits, val_bits,
                              &rng);
      if (HasFailure()) return;
    }
  }
}

// Gap block b starts at bit b * 127 * w of the gap stream, so for an odd
// width its first eight blocks start at all eight bit phases; even widths
// reach the even phases, or phase 0.
TEST(KernelUnpack, EveryGapBlockPhase) {
  std::mt19937_64 rng(2102);
  for (unsigned gap_bits = 1; gap_bits <= 25; ++gap_bits) {
    std::set<uint64_t> phases;
    for (uint64_t b = 0; b < 8; ++b) {
      phases.insert(b * (kPackedChunkBlock - 1) * gap_bits % 8);
    }
    const size_t reachable = gap_bits % 2 == 1   ? 8
                             : gap_bits % 4 == 2 ? 4
                             : gap_bits % 8 == 4 ? 2
                                                 : 1;
    EXPECT_EQ(phases.size(), reachable) << "gap_bits " << gap_bits;
    for (const unsigned val_bits : {0u, 7u, 25u, 26u}) {
      ExpectRandomBlobUnpacks(8 * kPackedChunkBlock, gap_bits, val_bits,
                              &rng);
    }
  }
}

TEST(KernelUnpack, BlockSizes) {
  std::mt19937_64 rng(2103);
  for (const uint32_t last : {1u, 2u, 7u, 8u, 9u, 127u, 128u}) {
    for (const uint32_t blocks : {1u, 9u}) {
      for (const unsigned gap_bits : {0u, 1u, 5u, 8u, 13u, 24u, 25u, 26u, 32u}) {
        for (const unsigned val_bits : {0u, 1u, 8u, 17u, 25u, 26u, 33u, 64u}) {
          ExpectRandomBlobUnpacks((blocks - 1) * kPackedChunkBlock + last,
                                  gap_bits, val_bits, &rng);
          if (HasFailure()) return;
        }
      }
    }
  }
}

// 904 entries in 8 blocks leave 896 gaps: with 13-bit gaps and 21-bit values
// both streams end exactly on their last field's final byte, so the tail
// rule must stop each vector step short of the stream end.
TEST(KernelUnpack, LastFieldEndsOnStreamsFinalByte) {
  constexpr uint32_t kCount = 904;
  std::mt19937_64 rng(2104);
  Chunk chunk(1u << 24);
  uint32_t off = 0;
  for (uint32_t i = 0; i < kCount; ++i) {
    off += 1 + (i == 5 ? (1u << 13) - 1 : static_cast<uint32_t>(rng() % 4096));
    const int64_t value =
        i == 9 ? -1000000 + (1 << 21) - 1
               : -1000000 + static_cast<int64_t>(rng() % (1 << 21));
    ASSERT_OK(chunk.AppendSorted(off, value));
  }
  const ExactBlob blob(chunk.Serialize(ChunkFormat::kDiffSequence));
  ASSERT_OK_AND_ASSIGN(const ChunkView view, ChunkView::Make(blob.view()));
  ASSERT_EQ(view.encoding(), ChunkEncoding::kDiffSeq);
  ASSERT_EQ(view.gap_bits(), 13u);
  ASSERT_EQ(view.val_bits(), 21u);
  ASSERT_EQ((kCount - view.num_blocks()) * view.gap_bits() % 8, 0u);
  ASSERT_EQ(kCount * view.val_bits() % 8, 0u);
  ExpectUnpackMatchesDecodeBlock(view);
  // And through the kernel: every cell, in order, under both ISAs.
  IsaGuard guard;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, DetectedIsa()}) {
    kernels::ForceIsa(isa);
    size_t i = 0;
    kernels::UnpackRange(view, 0, kCount,
                         [&](const uint32_t* o, const int64_t* v, size_t n) {
                           for (size_t k = 0; k < n; ++k, ++i) {
                             ASSERT_EQ(o[k], chunk.entries()[i].offset);
                             ASSERT_EQ(v[k], chunk.entries()[i].value);
                           }
                         });
    EXPECT_EQ(i, kCount) << kernels::IsaName(isa);
  }
}

// ---------------------------------------------------------------------------
// Outer-table reuse: KernelTables keeps the outer table across builds while
// the split, the outer extents and the outer contributions match.

TEST(KernelKat, OuterTableReuseKeysOnExtents) {
  // Contribution of dimension d at global coordinate c, the same function
  // for every chunk, as Build's IndexToIndex lookups are.
  const std::vector<uint64_t> strides = {25, 5, 1};
  const auto grouped_at = [&](const std::vector<uint32_t>& dims,
                              const std::vector<uint32_t>& base) {
    Grouped grouped;
    for (size_t d = 0; d < dims.size(); ++d) {
      std::vector<uint64_t> contribution(dims[d]);
      for (uint32_t l = 0; l < dims[d]; ++l) {
        contribution[l] = (base[d] + l) * (d + 2) % 5 * strides[d];
      }
      grouped.push_back({d, std::move(contribution)});
    }
    return grouped;
  };
  // Two chunks with the same base whose outer blocks (dims 0 and 1 at
  // split 2) differ only in dim 1's extent, then one that differs from the
  // first only in its inner base coordinate.
  const std::vector<uint32_t> full = {4, 6, 5};
  const std::vector<uint32_t> edge = {4, 3, 5};
  const std::vector<uint32_t> base = {8, 12, 0};
  const std::vector<uint32_t> next_inner = {8, 12, 5};
  struct Step {
    const std::vector<uint32_t>* dims;
    const std::vector<uint32_t>* base;
    bool rebuilds;
  };
  const Step steps[] = {{&full, &base, true},  {&edge, &base, true},
                        {&full, &base, true},  {&full, &next_inner, false},
                        {&edge, &base, true},  {&edge, &base, false}};
  IsaGuard guard;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, DetectedIsa()}) {
    kernels::ForceIsa(isa);
    kernels::KernelTables tables;
    uint64_t builds = 0;
    for (size_t i = 0; i < std::size(steps); ++i) {
      const Step& step = steps[i];
      const std::string where = "step " + std::to_string(i) + " isa " +
                                std::string(kernels::IsaName(isa));
      const Grouped grouped = grouped_at(*step.dims, *step.base);
      const uint32_t capacity = Capacity(*step.dims);
      const TestChunk c(capacity, EveryNth(capacity, 1, static_cast<uint32_t>(40 + i)),
                        ChunkFormat::kDiffSequence);
      tables.BuildRaw(*step.dims, grouped, 2, step.base);
      builds += step.rebuilds ? 1 : 0;
      EXPECT_EQ(tables.outer_builds(), builds) << where;
      std::vector<query::AggState> got(125);
      kernels::AggregateView(*c.view, tables, got.data());
      EXPECT_EQ(got, ReferenceAggregate(*c.view, *step.dims, grouped, 125))
          << where;
    }
  }
}

// The same through Build on a cube whose last chunk row and column are
// partial, so the split and the outer extents change from chunk to chunk;
// visited in row-major order (mostly reusing the outer table) and
// alternating between the first and the last chunks.
TEST(KernelKat, OuterTableReuseOnPartialEdgeChunks) {
  gen::GenConfig config;
  config.dims.resize(3);
  const uint32_t sizes[3] = {10, 14, 9};
  for (size_t d = 0; d < 3; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {4, 2};
  }
  config.num_valid_cells = 700;
  config.seed = 23;
  config.chunk_extents = {4, 5, 3};
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  TempFile file("outer_reuse");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const OlapArray& olap = *db->olap();
  const ChunkedArray& array = olap.array(0);
  query::ConsolidationQuery q;
  q.dims.resize(3);
  for (size_t d = 0; d < 3; ++d) q.dims[d].group_by_col = 1;
  const query::GroupedResult truth = BruteForce(data, q);
  ASSERT_OK_AND_ASSIGN(const GroupSpec spec, GroupSpec::Make(olap, q));

  std::vector<uint64_t> in_order;
  for (uint64_t c = 0; c < array.layout().num_chunks(); ++c) {
    if (!array.ChunkIsEmpty(c)) in_order.push_back(c);
  }
  std::vector<uint64_t> alternating;
  for (size_t i = 0, j = in_order.size(); i < j; ++i) {
    alternating.push_back(in_order[i]);
    if (i < --j) alternating.push_back(in_order[j]);
  }
  IsaGuard guard;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, DetectedIsa()}) {
    kernels::ForceIsa(isa);
    for (const std::vector<uint64_t>* order : {&in_order, &alternating}) {
      const std::string where =
          std::string(order == &in_order ? "row-major" : "alternating") +
          " isa " + std::string(kernels::IsaName(isa));
      kernels::KernelTables tables;
      std::vector<query::AggState> flat(spec.num_groups);
      for (const uint64_t c : *order) {
        ASSERT_OK_AND_ASSIGN(const std::string blob, array.ReadChunkBlob(c));
        ASSERT_OK_AND_ASSIGN(const ChunkView view, ChunkView::Make(blob));
        tables.Build(olap, spec, c);
        kernels::AggregateView(view, tables, flat.data());
      }
      if (order == &in_order) {
        EXPECT_LT(tables.outer_builds(), order->size()) << where;
      }
      EXPECT_TRUE(FlatToGroupedResult(spec, flat, spec.GroupColumnNames(olap))
                      .SameAs(truth))
          << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Observability: kernel_isa in ExecutionStats, dispatch/steal counters in
// the metrics registry.

TEST(KernelDispatchStats, RunQueryReportsIsaAndCounters) {
  TempFile file("kernel_metrics");
  DatabaseOptions options = SmallDbOptions();
  options.storage.metrics_enabled = true;
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(300, 17)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));

  const std::string isa_name(kernels::IsaName(kernels::ActiveIsa()));
  MetricsRegistry& reg = MetricsRegistry::Default();
  const uint64_t dispatch_before =
      reg.GetCounter("kernel.dispatch." + isa_name)->value();
  const uint64_t splits_before = reg.GetCounter("morsel.splits")->value();

  ASSERT_OK_AND_ASSIGN(Execution serial,
                       RunQuery(db.get(), EngineKind::kArray, gen::Query1(3)));
  EXPECT_EQ(serial.stats.kernel_isa, isa_name);
  EXPECT_NE(serial.stats.ToJson().find("\"kernel_isa\":\"" + isa_name + "\""),
            std::string::npos);
  EXPECT_EQ(reg.GetCounter("kernel.dispatch." + isa_name)->value(),
            dispatch_before + 1);

  // A non-array engine never runs the kernels.
  ASSERT_OK_AND_ASSIGN(
      Execution star, RunQuery(db.get(), EngineKind::kStarJoin, gen::Query1(3)));
  EXPECT_EQ(star.stats.kernel_isa, "none");

  // Parallel run with 1-cell morsels: splits must reach the registry.
  ArrayConsolidateStats pstats;
  ArrayConsolidateOptions mo;
  mo.min_cells = 1;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                       ConsolidateAt(*db->olap(), gen::Query1(3), 2, &pstats,
                                     mo));
  EXPECT_GT(pstats.morsel_splits, 0u);
  EXPECT_EQ(reg.GetCounter("morsel.splits")->value(),
            splits_before + pstats.morsel_splits);
  EXPECT_TRUE(parallel.SameAs(serial.result));
}

TEST(KernelDispatchStats, ForceIsaRoundTrips) {
  IsaGuard guard;
  kernels::ForceIsa(kernels::Isa::kScalar);
  EXPECT_EQ(kernels::ActiveIsa(), kernels::Isa::kScalar);
  EXPECT_EQ(kernels::IsaName(kernels::Isa::kScalar), "scalar");
  EXPECT_EQ(kernels::IsaName(kernels::Isa::kAvx2), "avx2");
  kernels::ForceIsa(std::nullopt);
  // Detection is environment-dependent; just require a stable answer.
  EXPECT_EQ(kernels::ActiveIsa(), kernels::ActiveIsa());
}

}  // namespace
}  // namespace paradise
