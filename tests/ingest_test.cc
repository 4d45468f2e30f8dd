// Incremental-ingest suite (DESIGN.md choice 15): epoch-MVCC visibility,
// byte-parity of overlay reads with a from-scratch load, crash-safe delta
// compaction, pinned-reader survival, recovery across reopen, cancellation,
// and the relational-engine gate, plus the scan kernel's and §4.2 probe's
// base+delta merge under every codec. The load-bearing invariant everywhere:
// querying the ingested database at its newest epoch must be
// indistinguishable — down to the serialized chunk bytes — from loading a
// fresh database that contained the merged data all along.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/slice.h"
#include "ingest/ingest.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "schema/db_verify.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::ConsolidateAt;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

/// Query 1 over the tiny 3-d cube plus a selection variant, exercising both
/// the no-selection and the selection array paths.
query::ConsolidationQuery GroupQuery() { return gen::Query1(3); }

query::ConsolidationQuery SelectQuery() {
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].group_by_col = 1;
  q.dims[1].selections.push_back(
      query::Selection{1,
                       {query::Literal{gen::AttrValue(1, 1, 0)},
                        query::Literal{gen::AttrValue(1, 1, 2)}}});
  q.dims[2].group_by_col = 1;
  return q;
}

/// The dataset `base` with `upserts` (global index -> value) applied — what
/// a from-scratch load "as of" the ingested state looks like.
gen::SyntheticDataset Merged(const gen::SyntheticDataset& base,
                             const std::map<uint64_t, int64_t>& upserts) {
  std::map<uint64_t, int64_t> cells;
  for (size_t i = 0; i < base.cell_global_indices.size(); ++i) {
    cells[base.cell_global_indices[i]] = base.measures[i];
  }
  for (const auto& [gi, v] : upserts) cells[gi] = v;
  gen::SyntheticDataset out = base;
  out.cell_global_indices.clear();
  out.measures.clear();
  for (const auto& [gi, v] : cells) {
    out.cell_global_indices.push_back(gi);
    out.measures.push_back(v);
  }
  return out;
}

/// Ingests `upserts` through the incremental write path (no commit).
void WriteUpserts(Database* db, const gen::SyntheticDataset& data,
                  const std::map<uint64_t, int64_t>& upserts) {
  for (const auto& [gi, v] : upserts) {
    ASSERT_OK(db->ingest()->Write(data.CellKeys(gi), {v}));
  }
}

/// A deterministic batch of upserts: `updates` hit existing cells,
/// `inserts` hit empty ones.
std::map<uint64_t, int64_t> MakeUpserts(const gen::SyntheticDataset& data,
                                        size_t updates, size_t inserts,
                                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<uint64_t> occupied(data.cell_global_indices.begin(),
                              data.cell_global_indices.end());
  const uint64_t total = [&] {
    uint64_t t = 1;
    for (uint32_t s : {6u, 8u, 10u}) t *= s;
    return t;
  }();
  std::map<uint64_t, int64_t> upserts;
  while (updates > 0 || inserts > 0) {
    const uint64_t gi = rng() % total;
    if (upserts.contains(gi)) continue;
    const bool exists = occupied.contains(gi);
    if (exists && updates > 0) {
      upserts[gi] = static_cast<int64_t>(rng() % 1000) - 500;
      --updates;
    } else if (!exists && inserts > 0) {
      upserts[gi] = static_cast<int64_t>(rng() % 1000) - 500;
      --inserts;
    }
  }
  return upserts;
}

/// Asserts every chunk of `got`, deltas merged in, serializes to exactly
/// the bytes of the corresponding chunk in `want` — the bit-identity
/// acceptance criterion (equal bytes imply equal cells).
void ExpectChunkBytesEqual(const Database& got, const Database& want,
                           const std::string& label) {
  const ChunkedArray& a = got.olap()->array(0);
  const ChunkedArray& b = want.olap()->array(0);
  ASSERT_EQ(a.layout().num_chunks(), b.layout().num_chunks());
  for (uint64_t c = 0; c < a.layout().num_chunks(); ++c) {
    ASSERT_OK_AND_ASSIGN(std::string blob_a, a.ReadChunkBlob(c));
    ASSERT_OK_AND_ASSIGN(std::string blob_b, b.ReadChunkBlob(c));
    EXPECT_EQ(blob_a, blob_b) << label << ": chunk " << c << " bytes diverge";
  }
}

TEST(IngestTest, PendingWritesInvisibleUntilCommit) {
  TempFile file("ingest_pending");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 11)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));

  const query::ConsolidationQuery q = GroupQuery();
  const query::GroupedResult before = BruteForce(data, q);
  const uint64_t epoch_before = db->commit_epoch();

  const std::map<uint64_t, int64_t> upserts = MakeUpserts(data, 5, 5, 1);
  WriteUpserts(db.get(), data, upserts);
  EXPECT_EQ(db->ingest()->pending_cells(), 10u);
  EXPECT_FALSE(db->ingested());

  // Buffered-but-uncommitted writes are invisible; the epoch is unchanged.
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kArray, q));
  EXPECT_TRUE(exec.result.SameAs(before));
  EXPECT_EQ(db->commit_epoch(), epoch_before);
}

TEST(IngestTest, CommitMakesWritesVisibleAtNewEpoch) {
  TempFile file("ingest_commit");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 12)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const uint64_t epoch_before = db->commit_epoch();

  const std::map<uint64_t, int64_t> upserts = MakeUpserts(data, 7, 9, 2);
  WriteUpserts(db.get(), data, upserts);
  ASSERT_OK(db->ingest()->Commit());
  EXPECT_TRUE(db->ingested());
  EXPECT_EQ(db->ingest()->pending_cells(), 0u);
  EXPECT_EQ(db->ingest()->applied_cells(), 16u);
  EXPECT_GT(db->commit_epoch(), epoch_before);

  const gen::SyntheticDataset merged = Merged(data, upserts);
  for (const query::ConsolidationQuery& q : {GroupQuery(), SelectQuery()}) {
    const query::GroupedResult expected = BruteForce(merged, q);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      RunQueryOptions options;
      options.cold = true;
      options.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(Execution exec,
                           RunQuery(db.get(), EngineKind::kArray, q, options));
      EXPECT_TRUE(exec.result.SameAs(expected)) << "threads " << threads;
    }
  }
}

TEST(IngestTest, OverlayReadsAreByteIdenticalToFromScratchLoad) {
  TempFile file("ingest_bytes_overlay");
  TempFile fresh_file("ingest_bytes_fresh");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 13)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const std::map<uint64_t, int64_t> upserts = MakeUpserts(data, 10, 10, 3);
  WriteUpserts(db.get(), data, upserts);
  ASSERT_OK(db->ingest()->Commit());

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> fresh,
                       BuildDatabaseFromDataset(
                           fresh_file.path(), Merged(data, upserts),
                           SmallDbOptions()));
  // Before any compaction: overlay-merged decode serves the same bytes a
  // from-scratch load of the merged data packs.
  ExpectChunkBytesEqual(*db, *fresh, "overlay");

  // After compaction: the packed base itself carries those bytes.
  ASSERT_OK(db->ingest()->Compact());
  EXPECT_EQ(db->ingest()->stats().live_generations, 0u);
  EXPECT_EQ(db->olap()->array(0).overlay(), nullptr);
  ExpectChunkBytesEqual(*db, *fresh, "compacted");

  const query::GroupedResult expected =
      BruteForce(Merged(data, upserts), GroupQuery());
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec.result.SameAs(expected));

  // The file stays verifiable after the full commit+compact cycle.
  db.reset();
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_TRUE(report.clean()) << (report.AllIssues().empty()
                                      ? std::string("?")
                                      : report.AllIssues().front());
}

/// The §4.2 selection whose cross-product is exactly the level-1 box of
/// cell `gi` (one selected level-1 value per dimension).
query::ConsolidationQuery BoxSelection(const gen::SyntheticDataset& data,
                                       uint64_t gi) {
  const std::vector<int32_t> keys = data.CellKeys(gi);
  query::ConsolidationQuery q;
  q.dims.resize(keys.size());
  for (size_t d = 0; d < keys.size(); ++d) {
    const uint32_t code = data.config.dims[d].LevelCode(
        1, static_cast<uint32_t>(keys[d]));
    q.dims[d].selections.push_back(
        query::Selection{1, {query::Literal{gen::AttrValue(d, 1, code)}}});
  }
  q.dims[0].group_by_col = 1;
  q.dims[2].group_by_col = 1;
  return q;
}

/// Under every stored codec: ingests `upserts`, then runs `q` (and the §4.1
/// group query) at threads 1 and 4 on the overlaid array, against
/// BruteForce of the merged data and against the same query on a
/// from-scratch load of it — the kernel merge must read the same chunks and
/// aggregate the same cells as the merged chunks would.
void ExpectOverlaidSelectionMatchesFreshLoad(
    const gen::SyntheticDataset& data,
    const std::map<uint64_t, int64_t>& upserts,
    const query::ConsolidationQuery& q) {
  const gen::SyntheticDataset merged = Merged(data, upserts);
  for (const ChunkFormat f :
       {ChunkFormat::kDense, ChunkFormat::kOffsetCompressed,
        ChunkFormat::kDiffSequence}) {
    const std::string label(ChunkFormatToString(f));
    DatabaseOptions options = SmallDbOptions();
    options.array.chunk_format = f;
    TempFile file("ingest_merge_overlay");
    TempFile fresh_file("ingest_merge_fresh");
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         BuildDatabaseFromDataset(file.path(), data, options));
    WriteUpserts(db.get(), data, upserts);
    ASSERT_OK(db->ingest()->Commit());
    ASSERT_NE(db->olap()->array(0).overlay(), nullptr) << label;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> fresh,
        BuildDatabaseFromDataset(fresh_file.path(), merged, options));
    for (const query::ConsolidationQuery& query : {q, GroupQuery()}) {
      const query::GroupedResult expected = BruteForce(merged, query);
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        // Small morsels at 4 threads split every chunk, so the delta must
        // be aggregated once per chunk, not once per piece.
        ArrayConsolidateOptions mo;
        mo.min_cells = 4;
        ArrayConsolidateStats got_stats;
        ArrayConsolidateStats want_stats;
        ASSERT_OK_AND_ASSIGN(
            query::GroupedResult got,
            ConsolidateAt(*db->olap(), query, threads, &got_stats, mo));
        ASSERT_OK_AND_ASSIGN(
            query::GroupedResult want,
            ConsolidateAt(*fresh->olap(), query, threads, &want_stats, mo));
        const std::string where =
            label + " threads " + std::to_string(threads) +
            (query.HasSelection() ? " selection" : " scan");
        EXPECT_TRUE(got.SameAs(expected)) << where;
        EXPECT_TRUE(want.SameAs(expected)) << where;
        EXPECT_EQ(got_stats.cells_scanned, want_stats.cells_scanned) << where;
        EXPECT_EQ(got_stats.chunks_read, want_stats.chunks_read) << where;
        EXPECT_EQ(got_stats.hits, want_stats.hits) << where;
      }
    }
  }
}

TEST(IngestTest, SelectionFindsCellOnlyInTheDelta) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 31)));
  const std::set<uint64_t> occupied(data.cell_global_indices.begin(),
                                    data.cell_global_indices.end());
  // An empty cell whose whole selected box is empty in the base: the one
  // cell the selection finds exists only in the delta.
  std::optional<uint64_t> target;
  for (uint64_t gi = 0; gi < 6 * 8 * 10 && !target; ++gi) {
    if (occupied.contains(gi)) continue;
    const query::ConsolidationQuery q = BoxSelection(data, gi);
    if (BruteForce(data, q).rows().empty()) target = gi;
  }
  ASSERT_TRUE(target.has_value());
  const query::ConsolidationQuery q = BoxSelection(data, *target);
  const std::map<uint64_t, int64_t> upserts = {{*target, 4242}};
  ASSERT_EQ(BruteForce(Merged(data, upserts), q).rows().size(), 1u);
  ExpectOverlaidSelectionMatchesFreshLoad(data, upserts, q);
}

TEST(IngestTest, SelectionSeesDeltaOverrideOfBaseValue) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 32)));
  // Override the first and last stored cells (the first and last offsets of
  // their chunks' bases are likely among them) plus one in the middle.
  const uint64_t first = data.cell_global_indices.front();
  const uint64_t middle =
      data.cell_global_indices[data.cell_global_indices.size() / 2];
  const uint64_t last = data.cell_global_indices.back();
  const std::map<uint64_t, int64_t> upserts = {
      {first, -900001}, {middle, 900002}, {last, 900003}};
  for (const uint64_t gi : {first, middle, last}) {
    ExpectOverlaidSelectionMatchesFreshLoad(data, upserts,
                                            BoxSelection(data, gi));
  }
}

/// The fuzzed acceptance loop: random interleavings of write / commit /
/// compact; after every commit the array engine (serial, parallel, cached
/// and uncached) must match a from-scratch evaluation of the data as of
/// that epoch.
TEST(IngestTest, FuzzedInterleavingsMatchFromScratchEvaluation) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    TempFile file("ingest_fuzz");
    ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                         gen::Generate(TinyConfig(120, 20 + seed)));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    std::mt19937_64 rng(seed);
    std::map<uint64_t, int64_t> applied;  // all committed upserts so far
    std::map<uint64_t, int64_t> pending;
    query::ConsolidationResultCache cache;

    for (int step = 0; step < 12; ++step) {
      const int action = static_cast<int>(rng() % 4);
      if (action <= 1) {  // write a small batch (2x weight)
        const std::map<uint64_t, int64_t> batch =
            MakeUpserts(data, rng() % 3, 1 + rng() % 3, rng());
        WriteUpserts(db.get(), data, batch);
        for (const auto& [gi, v] : batch) pending[gi] = v;
        continue;
      }
      if (action == 2) {
        ASSERT_OK(db->ingest()->Commit());
        for (const auto& [gi, v] : pending) applied[gi] = v;
        pending.clear();
      } else {
        ASSERT_OK(db->ingest()->Compact());
      }
      const gen::SyntheticDataset merged = Merged(data, applied);
      for (const query::ConsolidationQuery& q :
           {GroupQuery(), SelectQuery()}) {
        const query::GroupedResult expected = BruteForce(merged, q);
        for (size_t threads : {size_t{1}, size_t{4}, size_t{16}}) {
          RunQueryOptions options;
          options.cold = (step % 2 == 0);
          options.num_threads = threads;
          ASSERT_OK_AND_ASSIGN(
              Execution exec,
              RunQuery(db.get(), EngineKind::kArray, q, options));
          ASSERT_TRUE(exec.result.SameAs(expected))
              << "seed " << seed << " step " << step << " threads "
              << threads;
          // Cached path: epoch-keyed, so a result inserted at an older
          // epoch can never answer for the current one.
          options.cache = &cache;
          options.cold = false;
          ASSERT_OK_AND_ASSIGN(
              Execution cached,
              RunQuery(db.get(), EngineKind::kArray, q, options));
          ASSERT_TRUE(cached.result.SameAs(expected))
              << "seed " << seed << " step " << step << " threads "
              << threads << " (cached)";
        }
      }
    }
  }
}

TEST(IngestTest, ReopenRecoversUncompactedGenerations) {
  TempFile file("ingest_reopen");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 14)));
  std::map<uint64_t, int64_t> first;
  std::map<uint64_t, int64_t> both;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    first = MakeUpserts(data, 4, 4, 5);
    WriteUpserts(db.get(), data, first);
    ASSERT_OK(db->ingest()->Commit());
    const std::map<uint64_t, int64_t> second = MakeUpserts(data, 3, 3, 6);
    WriteUpserts(db.get(), data, second);
    ASSERT_OK(db->ingest()->Commit());
    both = first;
    for (const auto& [gi, v] : second) both[gi] = v;
    ASSERT_OK(db->storage()->Close());
  }
  // Reopen: both generations recover as overlays, results match, and the
  // ingested() gate survives the restart.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(file.path(), SmallDbOptions()));
  EXPECT_TRUE(db->ingested());
  EXPECT_EQ(db->ingest()->applied_cells(), 14u);
  EXPECT_EQ(db->ingest()->stats().live_generations, 2u);
  const query::GroupedResult expected =
      BruteForce(Merged(data, both), GroupQuery());
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec.result.SameAs(expected));

  // Compact, reopen again: same answer from the rewritten base.
  ASSERT_OK(db->ingest()->Compact());
  ASSERT_OK(db->storage()->Close());
  db.reset();
  ASSERT_OK_AND_ASSIGN(db, Database::Open(file.path(), SmallDbOptions()));
  EXPECT_TRUE(db->ingested());
  EXPECT_EQ(db->ingest()->stats().live_generations, 0u);
  ASSERT_OK_AND_ASSIGN(
      Execution exec2, RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec2.result.SameAs(expected));
  db.reset();
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_TRUE(report.clean()) << (report.AllIssues().empty()
                                      ? std::string("?")
                                      : report.AllIssues().front());
}

TEST(IngestTest, CancelledCompactionLeavesDeltasServable) {
  TempFile file("ingest_cancel");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 15)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const std::map<uint64_t, int64_t> upserts = MakeUpserts(data, 6, 6, 7);
  WriteUpserts(db.get(), data, upserts);
  ASSERT_OK(db->ingest()->Commit());

  CancellationToken cancel;
  cancel.RequestCancel();
  const Status st = db->ingest()->Compact(&cancel);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_EQ(db->ingest()->stats().compactions_cancelled, 1u);
  EXPECT_EQ(db->ingest()->stats().live_generations, 1u);

  // The generations are untouched and still serve the merged data.
  const query::GroupedResult expected =
      BruteForce(Merged(data, upserts), GroupQuery());
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec.result.SameAs(expected));

  // A later un-cancelled compaction completes and preserves the answer.
  ASSERT_OK(db->ingest()->Compact());
  EXPECT_EQ(db->ingest()->stats().live_generations, 0u);
  ASSERT_OK_AND_ASSIGN(
      Execution exec2, RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec2.result.SameAs(expected));
}

/// MVCC: a reader that pinned the array before a compaction keeps reading
/// the pre-compaction objects; the graveyard frees them only once the pin
/// drops.
TEST(IngestTest, PinnedReadersSurviveCompaction) {
  TempFile file("ingest_pin");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 16)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const std::map<uint64_t, int64_t> first = MakeUpserts(data, 5, 5, 8);
  WriteUpserts(db.get(), data, first);
  ASSERT_OK(db->ingest()->Commit());

  auto pin = std::make_optional(db->PinArray());
  const uint64_t pinned_epoch = pin->epoch;
  // Record what the pinned snapshot should keep saying for a few cells.
  std::vector<std::pair<CellCoords, std::optional<int64_t>>> probes;
  {
    const ChunkLayout& layout = db->olap()->layout();
    for (const auto& [gi, v] : first) {
      probes.emplace_back(layout.GlobalToCoords(gi), v);
    }
  }

  // Second batch + compaction: the newest epoch moves on.
  const std::map<uint64_t, int64_t> second = MakeUpserts(data, 5, 5, 9);
  WriteUpserts(db.get(), data, second);
  ASSERT_OK(db->ingest()->Commit());
  ASSERT_OK(db->ingest()->Compact());
  EXPECT_GT(db->commit_epoch(), pinned_epoch);

  // The old array objects are retired but NOT freed while the pin lives.
  ASSERT_OK(db->ingest()->ReclaimRetired());
  EXPECT_GE(db->ingest()->stats().retired_pending, 1u);
  for (const auto& [coords, want] : probes) {
    ASSERT_OK_AND_ASSIGN(std::optional<int64_t> got,
                         pin->array.array(0).GetCell(coords));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, *want);
  }

  // Dropping the pin lets the graveyard reclaim everything.
  pin.reset();
  ASSERT_OK(db->ingest()->ReclaimRetired());
  EXPECT_EQ(db->ingest()->stats().retired_pending, 0u);

  // And the newest epoch still answers from the compacted base.
  std::map<uint64_t, int64_t> both = first;
  for (const auto& [gi, v] : second) both[gi] = v;
  const query::GroupedResult expected =
      BruteForce(Merged(data, both), GroupQuery());
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(db.get(), EngineKind::kArray, GroupQuery()));
  EXPECT_TRUE(exec.result.SameAs(expected));
}

/// The array executor copies the measure's chunked array once, so a query
/// over the live, unpinned OLAP array reads one version from chunk
/// enumeration to the last chunk read, even while commits and compactions
/// publish new ones underneath it: every answer, at one thread and at four,
/// must equal the from-scratch answer at some committed epoch.
TEST(IngestTest, LiveExecutorAnswersAtSomeCommittedEpoch) {
  TempFile file("ingest_live");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 18)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const std::vector<query::ConsolidationQuery> queries = {GroupQuery(),
                                                          SelectQuery()};
  // oracle[i][k]: query i's answer after the first k batches committed.
  constexpr int kBatches = 16;
  std::vector<std::map<uint64_t, int64_t>> batches;
  std::vector<std::vector<query::GroupedResult>> oracle(queries.size());
  std::map<uint64_t, int64_t> applied;
  for (int k = 0; k <= kBatches; ++k) {
    for (size_t i = 0; i < queries.size(); ++i) {
      oracle[i].push_back(BruteForce(Merged(data, applied), queries[i]));
    }
    if (k == kBatches) break;
    batches.push_back(MakeUpserts(data, 3, 3, 40 + k));
    for (const auto& [gi, v] : batches.back()) applied[gi] = v;
  }

  // The writer publishes each batch only after the reader, which never
  // stops, has produced a few more answers — so commits land mid-query.
  std::atomic<bool> done{false};
  std::atomic<size_t> answers{0};
  std::thread writer([&] {
    for (int k = 0; k < kBatches; ++k) {
      for (const auto& [gi, v] : batches[k]) {
        EXPECT_OK(db->ingest()->Write(data.CellKeys(gi), {v}));
      }
      while (answers.load() < 8 * static_cast<size_t>(k + 1)) {
        std::this_thread::yield();
      }
      EXPECT_OK(db->ingest()->Commit());
      if (k % 3 == 2) EXPECT_OK(db->ingest()->Compact());
    }
    done.store(true);
  });
  do {
    for (size_t i = 0; i < queries.size(); ++i) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        // No ASSERT here: returning early would strand the writer.
        Result<query::GroupedResult> r =
            ConsolidateAt(*db->olap(), queries[i], threads);
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(r.ok() &&
                    std::any_of(oracle[i].begin(), oracle[i].end(),
                                [&](const query::GroupedResult& want) {
                                  return r->SameAs(want);
                                }))
            << "query " << i << " threads " << threads
            << ": answer matches no committed epoch";
        ++answers;
      }
    }
  } while (!done.load());
  writer.join();
  // Quiesced, the live array answers at the newest epoch.
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(query::GroupedResult last,
                         ConsolidateAt(*db->olap(), queries[i], 4));
    EXPECT_TRUE(last.SameAs(oracle[i].back())) << "query " << i;
  }
}

TEST(IngestTest, LiveAdtFunctionsAnswerAtSomeCommittedEpoch) {
  TempFile file("ingest_live_adt");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 18)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const IndexBox whole = {{0, 6}, {0, 8}, {0, 10}};
  constexpr int32_t kSliceKey = 2;  // dimension 0; key k is index k
  // (count, sum) of the whole cube and of the slice after the first k
  // batches committed.
  using Totals = std::pair<uint64_t, int64_t>;
  constexpr int kBatches = 48;
  std::vector<std::map<uint64_t, int64_t>> batches;
  std::vector<Totals> whole_oracle;
  std::vector<Totals> slice_oracle;
  std::map<uint64_t, int64_t> applied;
  for (int k = 0; k <= kBatches; ++k) {
    const gen::SyntheticDataset merged = Merged(data, applied);
    Totals all{0, 0};
    Totals slice{0, 0};
    for (size_t i = 0; i < merged.cell_global_indices.size(); ++i) {
      const int64_t v = merged.measures[i];
      all = {all.first + 1, all.second + v};
      if (merged.CellKeys(merged.cell_global_indices[i])[0] == kSliceKey) {
        slice = {slice.first + 1, slice.second + v};
      }
    }
    whole_oracle.push_back(all);
    slice_oracle.push_back(slice);
    if (k == kBatches) break;
    batches.push_back(MakeUpserts(data, 3, 3, 40 + k));
    for (const auto& [gi, v] : batches.back()) applied[gi] = v;
  }
  auto committed = [](const std::vector<Totals>& oracle, const Totals& t) {
    return std::find(oracle.begin(), oracle.end(), t) != oracle.end();
  };
  auto slice_totals = [](const std::vector<SliceCell>& cells) {
    Totals t{cells.size(), 0};
    for (const SliceCell& cell : cells) t.second += cell.value;
    return t;
  };

  // As in LiveExecutorAnswersAtSomeCommittedEpoch: the reader never stops,
  // so commits and compactions land in the middle of a walk.
  std::atomic<bool> done{false};
  std::atomic<size_t> answers{0};
  std::thread writer([&] {
    for (int k = 0; k < kBatches; ++k) {
      for (const auto& [gi, v] : batches[k]) {
        EXPECT_OK(db->ingest()->Write(data.CellKeys(gi), {v}));
      }
      while (answers.load() < 4 * static_cast<size_t>(k + 1)) {
        std::this_thread::yield();
      }
      EXPECT_OK(db->ingest()->Commit());
      if (k % 4 == 3) EXPECT_OK(db->ingest()->Compact());
    }
    done.store(true);
  });
  size_t reads = 0;
  size_t torn = 0;
  do {
    // No ASSERT here: returning early would strand the writer.
    Result<query::AggState> sum = ArraySumSubset(*db->olap(), whole);
    EXPECT_TRUE(sum.ok()) << sum.status().ToString();
    if (sum.ok() && !committed(whole_oracle, {sum->count, sum->sum})) ++torn;
    Result<std::vector<SliceCell>> slice =
        ArraySlice(*db->olap(), 0, kSliceKey);
    EXPECT_TRUE(slice.ok()) << slice.status().ToString();
    if (slice.ok() && !committed(slice_oracle, slice_totals(*slice))) ++torn;
    reads += 2;
    ++answers;
  } while (!done.load());
  writer.join();
  EXPECT_EQ(torn, 0u) << torn << " of " << reads
                      << " reads match no committed epoch";
  // Quiesced, the live array answers at the newest epoch.
  ASSERT_OK_AND_ASSIGN(query::AggState last,
                       ArraySumSubset(*db->olap(), whole));
  EXPECT_EQ(Totals(last.count, last.sum), whole_oracle.back());
  ASSERT_OK_AND_ASSIGN(std::vector<SliceCell> last_slice,
                       ArraySlice(*db->olap(), 0, kSliceKey));
  EXPECT_EQ(slice_totals(last_slice), slice_oracle.back());
}

TEST(IngestTest, RelationalEnginesGateAfterIngest) {
  TempFile file("ingest_gate");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 17)));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));
  const std::map<uint64_t, int64_t> upserts = MakeUpserts(data, 2, 2, 10);
  WriteUpserts(db.get(), data, upserts);
  ASSERT_OK(db->ingest()->Commit());

  const query::ConsolidationQuery q = SelectQuery();
  for (EngineKind kind :
       {EngineKind::kStarJoin, EngineKind::kBitmap, EngineKind::kLeftDeep,
        EngineKind::kBTreeSelect}) {
    const Status st = RunQuery(db.get(), kind, q).status();
    EXPECT_TRUE(st.IsNotSupported())
        << EngineKindToString(kind) << ": " << st.ToString();
  }

  // The planner never routes to a gated engine anymore.
  ASSERT_OK_AND_ASSIGN(PlanChoice choice, ChoosePlan(*db, q, {}));
  EXPECT_EQ(choice.engine, EngineKind::kArray);

  // And the array answers correctly through the planner's SQL front door.
  ASSERT_OK_AND_ASSIGN(
      Execution exec, RunQuery(db.get(), choice.engine, q));
  EXPECT_TRUE(exec.result.SameAs(BruteForce(Merged(data, upserts), q)));
}

TEST(IngestTest, PlanningDoesNotWaitForACommitInItsFsync) {
  TempFile file("ingest_latch");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(120, 23)));
  DatabaseOptions options = SmallDbOptions();
  paradise::testing::HookedDisk* disk = nullptr;
  paradise::testing::HookedDisk::Install(&options.storage, &disk);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(disk, nullptr);

  // The commit's first fsync announces itself, then holds until released
  // (bounded, so a regression fails the test instead of hanging it).
  std::promise<void> in_sync;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> armed{true};
  disk->set_on_sync([&] {
    if (!armed.exchange(false)) return;
    in_sync.set_value();
    released.wait_for(std::chrono::seconds(30));
  });
  WriteUpserts(db.get(), data, MakeUpserts(data, 1, 1, 31));
  Status commit_status;
  std::thread writer([&] { commit_status = db->ingest()->Commit(); });
  const bool held = in_sync.get_future().wait_for(std::chrono::seconds(30)) ==
                    std::future_status::ready;

  // While that commit sits in its fsync, planning and the relational gate
  // answer at once: the commit raised ingested() before publishing.
  const query::ConsolidationQuery q = SelectQuery();
  auto probe = std::async(std::launch::async, [&] {
    Result<PlanChoice> choice = ChoosePlan(*db, q, {});
    RunQueryOptions warm;
    warm.cold = false;
    Status gate = RunQuery(db.get(), EngineKind::kStarJoin, q, warm).status();
    return std::make_pair(std::move(choice), std::move(gate));
  });
  const bool answered =
      probe.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  release.set_value();
  writer.join();
  disk->set_on_sync(nullptr);

  EXPECT_TRUE(held) << "Commit() never reached an fsync";
  EXPECT_TRUE(answered) << "planning waited for the commit's fsync";
  auto [choice, gate] = probe.get();
  ASSERT_OK(choice.status());
  EXPECT_EQ(choice->engine, EngineKind::kArray);
  EXPECT_EQ(choice->reason, "ingested data: only the array reflects it");
  EXPECT_TRUE(gate.IsNotSupported()) << gate.ToString();
  ASSERT_OK(commit_status);
}

}  // namespace
}  // namespace paradise
