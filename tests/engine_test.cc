// Cross-engine property tests: the OLAP Array algorithms, the star-join
// consolidation, the bitmap+fact-file plan and the left-deep baseline must
// all produce identical GroupedResults — and match the brute-force reference
// — across randomized cubes, densities and query shapes.
#include <atomic>
#include <map>
#include <regex>
#include <string>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "query/result_cache.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

struct EngineCase {
  uint64_t seed;
  uint64_t valid_cells;
  int query_kind;  // 0 = Query1, 1 = Query2, 2 = Query3(2 of 3), 3 = custom
};

std::string CaseName(const ::testing::TestParamInfo<EngineCase>& info) {
  return "seed" + std::to_string(info.param.seed) + "_cells" +
         std::to_string(info.param.valid_cells) + "_q" +
         std::to_string(info.param.query_kind);
}

query::ConsolidationQuery MakeQuery(int kind) {
  switch (kind) {
    case 0:
      return gen::Query1(3);
    case 1:
      return gen::Query2(3);
    case 2:
      return gen::Query3(3, 2);
    default: {
      // Mixed shape: group dim0 at level 2, collapse dim1 with a selection,
      // group dim2 at level 1 with a two-value selection.
      query::ConsolidationQuery q;
      q.dims.resize(3);
      q.dims[0].group_by_col = 2;
      q.dims[1].selections.push_back(
          query::Selection{1, {query::Literal{gen::AttrValue(1, 1, 1)}}});
      q.dims[2].group_by_col = 1;
      q.dims[2].selections.push_back(query::Selection{
          2,
          {query::Literal{gen::AttrValue(2, 2, 0)},
           query::Literal{gen::AttrValue(2, 2, 1)}}});
      return q;
    }
  }
}

class EngineAgreementTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineAgreementTest, AllEnginesMatchBruteForce) {
  const EngineCase& tc = GetParam();
  TempFile file("engine_case");
  gen::GenConfig config = TinyConfig(tc.valid_cells, tc.seed);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));

  const query::ConsolidationQuery q = MakeQuery(tc.query_kind);
  const query::GroupedResult expected = BruteForce(data, q);

  std::vector<EngineKind> engines = {EngineKind::kArray, EngineKind::kStarJoin,
                                     EngineKind::kLeftDeep};
  if (q.HasSelection()) engines.push_back(EngineKind::kBitmap);

  for (EngineKind kind : engines) {
    ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db.get(), kind, q));
    EXPECT_TRUE(exec.result.SameAs(expected))
        << EngineKindToString(kind) << " diverges:\ngot:\n"
        << exec.result.ToString(q.agg) << "expected:\n"
        << expected.ToString(q.agg);
    EXPECT_GE(exec.stats.seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineAgreementTest,
    ::testing::Values(EngineCase{1, 30, 0}, EngineCase{2, 30, 1},
                      EngineCase{3, 30, 2}, EngineCase{4, 30, 3},
                      EngineCase{5, 200, 0}, EngineCase{6, 200, 1},
                      EngineCase{7, 200, 2}, EngineCase{8, 200, 3},
                      EngineCase{9, 480, 0}, EngineCase{10, 480, 1},
                      EngineCase{11, 480, 2}, EngineCase{12, 480, 3},
                      // Full cube (100 % density) and near-empty cube.
                      EngineCase{13, 480, 1}, EngineCase{14, 1, 0},
                      EngineCase{15, 1, 1}),
    CaseName);

TEST(EngineTest, BitmapRequiresSelection) {
  TempFile file("engine_bitmapsel");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(), SmallDbOptions()));
  EXPECT_TRUE(RunQuery(db.get(), EngineKind::kBitmap, gen::Query1(3))
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, RelationalEnginesStopMidQueryOnAFiredToken) {
  // A cube spanning ~15 fact pages; the token fires on the third page read
  // of a cold run, well before the last page.
  TempFile file("engine_cancel");
  gen::GenConfig config = TinyConfig(/*valid=*/3000, /*seed=*/19);
  const uint32_t sizes[3] = {12, 16, 20};
  for (size_t d = 0; d < 3; ++d) config.dims[d].size = sizes[d];
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  paradise::testing::HookedDisk* disk = nullptr;
  paradise::testing::HookedDisk::Install(&options.storage, &disk);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(disk, nullptr);
  ASSERT_GE(db->fact()->used_data_pages(), 10u);

  // Two of dim0's three level-1 values: qualifying tuples on every page.
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].selections.push_back(query::Selection{
      1,
      {query::Literal{gen::AttrValue(0, 1, 0)},
       query::Literal{gen::AttrValue(0, 1, 1)}}});
  q.dims[1].group_by_col = 1;
  q.dims[2].group_by_col = 2;
  const query::GroupedResult expected = BruteForce(data, q);
  constexpr int kFireOnRead = 3;

  for (EngineKind kind : {EngineKind::kStarJoin, EngineKind::kLeftDeep,
                          EngineKind::kBitmap, EngineKind::kBTreeSelect}) {
    SCOPED_TRACE(std::string(EngineKindToString(kind)));
    CancellationToken token;
    std::atomic<int> reads{0};
    disk->set_on_read([&token, &reads] {
      if (reads.fetch_add(1) + 1 == kFireOnRead) token.RequestCancel();
    });
    RunQueryOptions cancellable;
    cancellable.cancel = &token;
    Result<Execution> r = RunQuery(db.get(), kind, q, cancellable);
    disk->set_on_read(nullptr);
    EXPECT_TRUE(token.cancel_requested()) << "only " << reads << " reads";
    ASSERT_FALSE(r.ok()) << "finished after the token fired";
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();

    // The abandoned run leaves nothing behind: a clean cold rerun reads
    // past the firing point and answers exactly.
    ASSERT_OK_AND_ASSIGN(Execution clean, RunQuery(db.get(), kind, q));
    EXPECT_GT(clean.stats.io.disk_reads, uint64_t{kFireOnRead});
    EXPECT_TRUE(clean.result.SameAs(expected));
  }
}

TEST(EngineTest, ColdRunsDoDiskReads) {
  TempFile file("engine_cold");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(400), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(Execution cold,
                       RunQuery(db.get(), EngineKind::kArray, gen::Query1(3)));
  EXPECT_GT(cold.stats.io.disk_reads, 0u);
  RunQueryOptions warm_options;
  warm_options.cold = false;
  ASSERT_OK_AND_ASSIGN(
      Execution warm,
      RunQuery(db.get(), EngineKind::kArray, gen::Query1(3), warm_options));
  EXPECT_EQ(warm.stats.io.disk_reads, 0u);  // everything still buffered
  EXPECT_TRUE(warm.result.SameAs(cold.result));
}

TEST(EngineTest, PhaseTimersPopulated) {
  TempFile file("engine_phases");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(300), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(Execution array,
                       RunQuery(db.get(), EngineKind::kArray, gen::Query1(3)));
  EXPECT_TRUE(array.stats.phases.phases().contains("scan+aggregate"));
  ASSERT_OK_AND_ASSIGN(
      Execution star,
      RunQuery(db.get(), EngineKind::kStarJoin, gen::Query1(3)));
  EXPECT_TRUE(star.stats.phases.phases().contains("build"));
  EXPECT_TRUE(star.stats.phases.phases().contains("scan+aggregate"));
  ASSERT_OK_AND_ASSIGN(
      Execution bitmap,
      RunQuery(db.get(), EngineKind::kBitmap, gen::Query2(3)));
  EXPECT_TRUE(bitmap.stats.phases.phases().contains("bitmaps"));
  EXPECT_TRUE(bitmap.stats.phases.phases().contains("fetch+aggregate"));
}

// Sums of `"<name>":<micros>` pairs matched by `pattern` in `json`.
std::map<std::string, int64_t> SumByName(const std::string& json,
                                         const std::regex& pattern) {
  std::map<std::string, int64_t> sums;
  for (std::sregex_iterator it(json.begin(), json.end(), pattern), end;
       it != end; ++it) {
    sums[(*it)[1].str()] += std::stoll((*it)[2].str());
  }
  return sums;
}

// Checks, on the stats JSON itself, that "phases" is a view of "trace": its
// keys are exactly the span names below the query:<engine> root, and each
// value is the summed duration_micros of the spans with that name.
void ExpectPhasesViewTrace(const Execution& exec, const std::string& label) {
  SCOPED_TRACE(label);
  const std::string json = exec.stats.ToJson();
  const size_t phases_at = json.find("\"phases\":{");
  const size_t trace_at = json.find("\"trace\":{\"name\":\"query:");
  ASSERT_NE(phases_at, std::string::npos) << json;
  ASSERT_NE(trace_at, std::string::npos) << json;
  const std::string phases =
      json.substr(phases_at, json.find('}', phases_at) - phases_at);
  const std::map<std::string, int64_t> totals = SumByName(
      phases.substr(std::string("\"phases\":").size()),
      std::regex("\"([^\"]+)\":(-?[0-9]+)"));
  // Skip the root span itself; every span after it lies below it.
  const size_t below_root = json.find("\"children\":[", trace_at);
  ASSERT_NE(below_root, std::string::npos) << json;
  const std::map<std::string, int64_t> spans = SumByName(
      json.substr(below_root),
      std::regex("\\{\"name\":\"([^\"]+)\",\"start_micros\":-?[0-9]+,"
                 "\"duration_micros\":(-?[0-9]+)"));
  EXPECT_FALSE(totals.empty());
  EXPECT_EQ(totals, spans) << json;
}

TEST(EngineTest, PhasesAreAViewOfTheTrace) {
  TempFile file("engine_view");
  DatabaseOptions db_options = SmallDbOptions();
  db_options.build_btree_join_indexes = true;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(300), db_options));
  const query::ConsolidationQuery scan = gen::Query1(3);
  const query::ConsolidationQuery select = gen::Query2(3);
  const struct {
    EngineKind kind;
    const query::ConsolidationQuery* q;
  } runs[] = {{EngineKind::kArray, &scan},
              {EngineKind::kArray, &select},
              {EngineKind::kStarJoin, &scan},
              {EngineKind::kBitmap, &select},
              {EngineKind::kLeftDeep, &scan},
              {EngineKind::kBTreeSelect, &select}};
  for (const bool cold : {true, false}) {
    for (const auto& run : runs) {
      RunQueryOptions options;
      options.cold = cold;
      options.trace = true;
      ASSERT_OK_AND_ASSIGN(Execution exec,
                           RunQuery(db.get(), run.kind, *run.q, options));
      ExpectPhasesViewTrace(exec, std::string(EngineKindToString(run.kind)) +
                                      (cold ? " cold" : " warm"));
      EXPECT_EQ(exec.stats.phases.phases().contains("drop-caches"), cold);
    }
  }
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RunQueryOptions options;
    options.trace = true;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db.get(), EngineKind::kArray, scan, options));
    ExpectPhasesViewTrace(exec, "array threads=" + std::to_string(threads));
  }

  query::ConsolidationResultCache::Options cache_options;
  cache_options.derive_row_cost = 0;  // derive whenever the roll-up is exact
  query::ConsolidationResultCache cache(cache_options);
  RunQueryOptions cached;
  cached.trace = true;
  cached.cache = &cache;
  ASSERT_OK_AND_ASSIGN(Execution miss,
                       RunQuery(db.get(), EngineKind::kArray, scan, cached));
  ExpectPhasesViewTrace(miss, "cache miss");
  ASSERT_OK_AND_ASSIGN(Execution hit,
                       RunQuery(db.get(), EngineKind::kArray, scan, cached));
  ASSERT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  ExpectPhasesViewTrace(hit, "cache hit");
  query::ConsolidationQuery coarse = scan;
  coarse.dims[1].group_by_col = 2;  // TinyConfig's dim1 rolls up 1 -> 2
  ASSERT_OK_AND_ASSIGN(Execution derived,
                       RunQuery(db.get(), EngineKind::kArray, coarse, cached));
  ASSERT_EQ(derived.stats.cache_outcome, CacheOutcome::kDerived);
  ExpectPhasesViewTrace(derived, "derived hit");
}

TEST(EngineTest, BitmapAuxCountsQualifyingTuples) {
  TempFile file("engine_bits");
  gen::GenConfig config = TinyConfig(480, 21);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query2(3);
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kBitmap, q));
  const query::GroupedResult expected = BruteForce(data, q);
  uint64_t qualifying = 0;
  for (const auto& row : expected.rows()) {
    qualifying += row.agg.count;
  }
  EXPECT_EQ(exec.stats.aux, qualifying);
}

TEST(EngineTest, LeftDeepMaterializesIntermediates) {
  TempFile file("engine_leftdeep");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(300), SmallDbOptions()));
  ASSERT_OK_AND_ASSIGN(
      Execution exec,
      RunQuery(db.get(), EngineKind::kLeftDeep, gen::Query1(3)));
  // Stage 0 materializes all 300 facts, then one intermediate per joined
  // dimension (no filtering in Query 1).
  EXPECT_EQ(exec.stats.aux, 300u * 4);
}

TEST(EngineTest, EngineKindNames) {
  EXPECT_EQ(EngineKindToString(EngineKind::kArray), "array");
  EXPECT_EQ(EngineKindToString(EngineKind::kStarJoin), "starjoin");
  EXPECT_EQ(EngineKindToString(EngineKind::kBitmap), "bitmap");
  EXPECT_EQ(EngineKindToString(EngineKind::kLeftDeep), "leftdeep");
}

TEST(EngineTest, AggFuncSweepAgreesAcrossEngines) {
  TempFile file("engine_aggfunc");
  gen::GenConfig config = TinyConfig(350, 31);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  for (query::AggFunc agg :
       {query::AggFunc::kSum, query::AggFunc::kCount, query::AggFunc::kMin,
        query::AggFunc::kMax, query::AggFunc::kAvg}) {
    query::ConsolidationQuery q = gen::Query1(3);
    q.agg = agg;
    ASSERT_OK_AND_ASSIGN(Execution a,
                         RunQuery(db.get(), EngineKind::kArray, q));
    ASSERT_OK_AND_ASSIGN(Execution r,
                         RunQuery(db.get(), EngineKind::kStarJoin, q));
    ASSERT_TRUE(a.result.SameAs(r.result));
    // Finalized values agree row by row.
    for (size_t i = 0; i < a.result.rows().size(); ++i) {
      EXPECT_DOUBLE_EQ(a.result.rows()[i].agg.Finalize(agg),
                       r.result.rows()[i].agg.Finalize(agg));
    }
  }
}

}  // namespace
}  // namespace paradise
