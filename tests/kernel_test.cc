// Consolidation kernel tests (core/kernels/): magic-reciprocal division
// exactness, known-answer tests on crafted chunks (empty, single-cell,
// full-dense, max-offset-width) comparing the scalar and dispatched decode
// paths cell-for-cell, range/morsel equivalence on dense bitmaps, and an
// executor-level fuzz asserting morsel-scheduled results stay bit-identical
// to the single-thread run at thread counts 1-16 and forced morsel sizes
// down to 1 cell.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "array/chunk.h"
#include "common/metrics.h"
#include "core/consolidate.h"
#include "core/kernels/consolidate_kernel.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::ConsolidateAt;
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

// Runs AggregateView under `isa` and returns the flat result array.
std::vector<query::AggState> KernelAggregate(const ChunkView& view,
                                             const std::vector<uint32_t>& dims,
                                             const Grouped& grouped,
                                             size_t flat_size,
                                             kernels::Isa isa) {
  IsaGuard guard;
  kernels::ForceIsa(isa);
  kernels::KernelTables tables;
  tables.BuildRaw(dims, grouped);
  std::vector<query::AggState> flat(flat_size);
  kernels::AggregateView(view, tables, flat.data());
  return flat;
}

// Asserts scalar, dispatched, and reference agree cell-for-cell on `view`.
void ExpectKernelMatchesReference(const ChunkView& view,
                                  const std::vector<uint32_t>& dims,
                                  const Grouped& grouped, size_t flat_size) {
  const std::vector<query::AggState> want =
      ReferenceAggregate(view, dims, grouped, flat_size);
  kernels::Isa detected;
  {
    IsaGuard guard;
    kernels::ForceIsa(std::nullopt);
    detected = kernels::ActiveIsa();
  }
  for (const kernels::Isa isa : {kernels::Isa::kScalar, detected}) {
    const std::vector<query::AggState> got =
        KernelAggregate(view, dims, grouped, flat_size, isa);
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
  kernels::KernelTables tables;
  tables.BuildRaw(dims, grouped);

  std::mt19937 rng(7);
  std::vector<uint32_t> offsets(1003);  // odd length: exercises vector tails
  const uint32_t capacity = 7 * 11 * 13;
  for (auto& off : offsets) off = rng() % capacity;

  std::vector<uint64_t> scalar_idx(offsets.size()), active_idx(offsets.size());
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
