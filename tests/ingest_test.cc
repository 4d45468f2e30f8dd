// Incremental-ingest suite (DESIGN.md choice 15): epoch-MVCC visibility,
// byte-parity of overlay reads with a from-scratch load, crash-safe delta
// compaction, pinned-reader survival, recovery across reopen, cancellation,
// and the relational-engine gate. The load-bearing invariant everywhere:
// querying the ingested database at its newest epoch must be
// indistinguishable — down to the serialized chunk bytes — from loading a
// fresh database that contained the merged data all along.
#include <algorithm>
#include <atomic>
#include <cstdint>
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

/// Asserts every base chunk of `got` serializes to exactly the bytes of the
/// corresponding chunk in `want` — the bit-identity acceptance criterion.
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

}  // namespace
}  // namespace paradise
