// Parallel consolidation tests: the array executor at N threads agrees
// exactly with itself at one thread (no-selection §4.1 and selection §4.2)
// and with the independent star-join engine, across thread counts
// (parameterized), selection shapes, error handling, and stats.
#include <chrono>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "core/consolidate.h"
#include "query/engine.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::ConsolidateAt;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

class ParallelConsolidateTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("parallel");
    ASSERT_OK_AND_ASSIGN(data_, gen::Generate(TinyConfig(400, 61)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data_,
                                      SmallDbOptions()));
  }

  std::unique_ptr<TempFile> file_;
  gen::SyntheticDataset data_;
  std::unique_ptr<Database> db_;
};

TEST_P(ParallelConsolidateTest, MatchesSerialResult) {
  const size_t threads = GetParam();
  for (int variant = 0; variant < 3; ++variant) {
    query::ConsolidationQuery q;
    q.dims.resize(3);
    if (variant == 0) q = gen::Query1(3);
    if (variant == 1) q.dims[1].group_by_col = 2;
    // variant 2: full collapse.
    ASSERT_OK_AND_ASSIGN(query::GroupedResult serial,
                         ConsolidateAt(*db_->olap(), q, 1));
    // threads=1 is the same executor run inline; the star join over the
    // fact file is the independent reference.
    ASSERT_OK_AND_ASSIGN(Execution star,
                         RunQuery(db_.get(), EngineKind::kStarJoin, q));
    ArrayConsolidateStats stats;
    ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                         ConsolidateAt(*db_->olap(), q, threads, &stats));
    EXPECT_TRUE(parallel.SameAs(serial)) << "variant " << variant;
    EXPECT_TRUE(parallel.SameAs(star.result)) << "variant " << variant;
    EXPECT_GT(stats.chunks_read, 0u);
    EXPECT_EQ(stats.morsels, stats.chunks_read + stats.morsel_splits);
  }
}

TEST_P(ParallelConsolidateTest, SelectionMatchesSerialResult) {
  const size_t threads = GetParam();
  // Selection shapes: every-dim equality (Query 2), selection+group on a
  // prefix (Query 3), and a multi-value IN selection.
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
                         ConsolidateAt(*db_->olap(), q, 1, &serial_stats));
    ASSERT_OK_AND_ASSIGN(Execution star,
                         RunQuery(db_.get(), EngineKind::kStarJoin, q));
    ArrayConsolidateStats par_stats;
    ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                         ConsolidateAt(*db_->olap(), q, threads, &par_stats));
    EXPECT_TRUE(parallel.SameAs(serial)) << "query " << i;
    EXPECT_TRUE(parallel.SameAs(star.result)) << "query " << i;
    // The §4.2 work metrics are scheduling-independent at the default
    // morsel size: both runs read, skip and probe exactly the same chunks
    // and candidates.
    EXPECT_EQ(par_stats.chunks_read, serial_stats.chunks_read);
    EXPECT_EQ(par_stats.chunks_skipped, serial_stats.chunks_skipped);
    EXPECT_EQ(par_stats.candidates, serial_stats.candidates);
    EXPECT_EQ(par_stats.hits, serial_stats.hits);
    // Every chunk read hands out one morsel plus the pieces split off it.
    EXPECT_EQ(par_stats.morsels,
              par_stats.chunks_read + par_stats.morsel_splits);
  }
}

TEST_P(ParallelConsolidateTest, EmptySelectionShortCircuits) {
  const size_t threads = GetParam();
  // A predicate matching no attribute value must produce an empty result
  // WITHOUT enumerating chunk order: the §4.2 early return fires before any
  // chunk I/O, at one thread and at many alike.
  query::ConsolidationQuery q = gen::Query1(3);
  query::Selection s;
  s.attr_col = 1;
  s.values = {query::Literal{"ZZNOSUCHVALUE"}};
  q.dims[0].selections.push_back(std::move(s));

  ArrayConsolidateStats serial_stats;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult serial,
                       ConsolidateAt(*db_->olap(), q, 1, &serial_stats));
  EXPECT_EQ(serial.num_groups(), 0u);
  EXPECT_EQ(serial_stats.chunks_read, 0u);
  EXPECT_EQ(serial_stats.candidates, 0u);

  ArrayConsolidateStats par_stats;
  ASSERT_OK_AND_ASSIGN(query::GroupedResult parallel,
                       ConsolidateAt(*db_->olap(), q, threads, &par_stats));
  EXPECT_EQ(parallel.num_groups(), 0u);
  EXPECT_EQ(par_stats.chunks_read, 0u);
  EXPECT_EQ(par_stats.candidates, 0u);
  EXPECT_TRUE(parallel.SameAs(serial));

  // The same shape through the engine entry point (cold, both thread modes).
  for (size_t engine_threads : {size_t{1}, threads}) {
    RunQueryOptions options;
    options.num_threads = engine_threads;
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db_.get(), EngineKind::kArray, q, options));
    EXPECT_EQ(exec.result.num_groups(), 0u);
    EXPECT_EQ(exec.stats.aux, 0u);  // chunks_read
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelConsolidateTest,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(ParallelConsolidateErrors, RejectsBadArguments) {
  TempFile file("parallel_err");
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromConfig(file.path(), TinyConfig(50), SmallDbOptions()));
  for (const query::ConsolidationQuery& q : {gen::Query1(3), gen::Query2(3)}) {
    EXPECT_TRUE(
        ConsolidateAt(*db->olap(), q, 0).status().IsInvalidArgument());
  }
}

TEST(ParallelEngine, RunQueryThreadsMatchSerial) {
  TempFile file("parallel_engine");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(300, 17)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  for (const query::ConsolidationQuery& q : {gen::Query1(3), gen::Query2(3)}) {
    ASSERT_OK_AND_ASSIGN(Execution serial,
                         RunQuery(db.get(), EngineKind::kArray, q));
    for (size_t threads : {size_t{2}, size_t{4}}) {
      RunQueryOptions options;
      options.num_threads = threads;
      ASSERT_OK_AND_ASSIGN(Execution parallel,
                           RunQuery(db.get(), EngineKind::kArray, q, options));
      EXPECT_TRUE(parallel.result.SameAs(serial.result))
          << "threads=" << threads;
      EXPECT_TRUE(parallel.result.SameAs(BruteForce(data, q)));
    }
  }
  RunQueryOptions zero;
  zero.num_threads = 0;
  EXPECT_TRUE(RunQuery(db.get(), EngineKind::kArray, gen::Query1(3), zero)
                  .status()
                  .IsInvalidArgument());
}

TEST(ParallelConsolidateErrors, MatchesBruteForceAtScale) {
  // A larger cube so several chunks are in flight per worker.
  TempFile file("parallel_scale");
  gen::GenConfig config;
  config.dims.resize(4);
  const uint32_t sizes[4] = {10, 10, 10, 20};
  for (size_t d = 0; d < 4; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {5, 2};
  }
  config.num_valid_cells = 4000;
  config.seed = 99;
  config.chunk_extents = {5, 5, 5, 5};
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query1(4);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult result,
                       ConsolidateAt(*db->olap(), q, 4));
  EXPECT_TRUE(result.SameAs(BruteForce(data, q)));
}

/// Hang-detector regression for the morsel-pool shutdown bug: a token fired
/// while workers are parked on the pool's condition variable (waiting for a
/// late fetcher) must still retire every worker — the bounded wait plus the
/// cancel poll at the loop top guarantee the join completes. Each run is
/// raced from a separate thread at staggered fire delays across thread
/// counts 1–16 and must finish well inside the watchdog window, returning
/// either a full (correct) result or the token's typed Cancelled status.
TEST(ParallelCancellation, FiredTokenNeverHangsTheJoin) {
  TempFile file("parallel_cancel_hang");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(400, 62)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query1(3);
  const query::GroupedResult expected = BruteForce(data, q);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{8}, size_t{16}}) {
    for (int trial = 0; trial < 4; ++trial) {
      CancellationToken token;
      if (trial == 0) token.RequestCancel();  // fired before the pool starts
      std::future<Result<query::GroupedResult>> fut =
          std::async(std::launch::async, [&] {
            ArrayConsolidateOptions options;
            options.cancel = &token;
            return ConsolidateAt(*db->olap(), q, threads, nullptr, options);
          });
      if (trial > 0) {
        // Stagger the fire point across the query's lifetime so some runs
        // catch workers mid-fetch and some catch them parked on the cv.
        std::this_thread::sleep_for(std::chrono::microseconds(trial * 150));
        token.RequestCancel();
      }
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(60)),
                std::future_status::ready)
          << "threads " << threads << " trial " << trial
          << ": cancellation hung the worker join";
      Result<query::GroupedResult> r = fut.get();
      if (r.ok()) {
        EXPECT_TRUE(r.value().SameAs(expected))
            << "threads " << threads << " trial " << trial;
      } else {
        EXPECT_TRUE(r.status().IsCancelled())
            << "threads " << threads << " trial " << trial << ": "
            << r.status().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace paradise
