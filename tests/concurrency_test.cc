// Concurrency suite for the sharded storage path: multi-threaded buffer
// pool torture (distinct pages, same-page races, eviction pressure), the
// background I/O pool, chunk read-ahead accounting, quiesced cache drops,
// and fault injection under concurrency — a parallel query over a faulty
// disk must return either the exact fault-free answer or a non-OK Status,
// never a silently wrong result.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/consolidate.h"
#include "query/engine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/io_pool.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::ConsolidateAt;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

// ---------------------------------------------------------------- IoPool --

TEST(IoPoolTest, RunsAllSubmittedTasks) {
  IoPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 100);
}

TEST(IoPoolTest, DrainOnIdlePoolReturns) {
  IoPool pool(2);
  pool.Drain();  // must not hang
}

TEST(IoPoolTest, ShutdownRefusesNewWorkAndIsIdempotent) {
  IoPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));
  pool.Shutdown();  // second call is a no-op
  pool.Drain();     // after shutdown, trivially idle
  EXPECT_LE(ran.load(), 1);
}

// ------------------------------------------------- sharded pool, torture --

struct PoolFixture {
  TempFile file{"conc_pool"};
  DiskManager disk;
  std::unique_ptr<BufferPool> pool;
  std::vector<PageId> pages;

  /// Creates `num_pages` pages, each filled with a byte derived from its
  /// PageId so any cross-wired read is detectable.
  void Build(const StorageOptions& options, size_t num_pages) {
    ASSERT_OK(disk.Create(file.path(), options));
    pool = std::make_unique<BufferPool>(&disk, options);
    for (size_t i = 0; i < num_pages; ++i) {
      ASSERT_OK_AND_ASSIGN(PageGuard g, pool->NewPage());
      std::memset(g.mutable_data(), static_cast<char>(g.page_id() & 0xff),
                  options.page_size);
      pages.push_back(g.page_id());
    }
    ASSERT_OK(pool->FlushAndEvictAll());
  }
};

TEST(ConcurrentBufferPool, ParallelFetchesSeeCorrectBytes) {
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 256;  // 8 shards * 32 frames
  options.pool_shards = 8;
  PoolFixture fx;
  fx.Build(options, 128);
  ASSERT_GT(fx.pool->num_shards(), 1u);

  constexpr size_t kThreads = 8;
  constexpr size_t kItersPerThread = 2000;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(t + 1);
      for (size_t i = 0; i < kItersPerThread; ++i) {
        const PageId id = fx.pages[rng.Uniform(fx.pages.size())];
        Result<PageGuard> g = fx.pool->FetchPage(id);
        if (!g.ok()) {
          failures.fetch_add(1);
          return;
        }
        const char expect = static_cast<char>(id & 0xff);
        const char* data = g.value().data();
        for (size_t b = 0; b < 16; ++b) {
          if (data[b] != expect) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fx.pool->pinned_frames(), 0u);
  const BufferPoolStats stats = fx.pool->stats();
  // Every fetch was counted, none lost to races.
  EXPECT_EQ(stats.logical_reads, kThreads * kItersPerThread);
  EXPECT_EQ(stats.hits + stats.disk_reads, stats.logical_reads);
}

TEST(ConcurrentBufferPool, EvictionPressureKeepsContentsRight) {
  StorageOptions options;
  options.page_size = 4096;
  // More pages than frames: every thread constantly evicts other shards'
  // tenants' pages while they are being verified.
  options.buffer_pool_pages = 64;
  options.pool_shards = 2;
  PoolFixture fx;
  fx.Build(options, 256);

  constexpr size_t kThreads = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (size_t i = 0; i < 1000; ++i) {
        const PageId id = fx.pages[rng.Uniform(fx.pages.size())];
        Result<PageGuard> g = fx.pool->FetchPage(id);
        if (!g.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (g.value().data()[0] != static_cast<char>(id & 0xff)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fx.pool->pinned_frames(), 0u);
  EXPECT_GT(fx.pool->stats().evictions, 0u);
}

TEST(ConcurrentBufferPool, SamePageStampedeReadsOnce) {
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 256;
  options.pool_shards = 8;
  PoolFixture fx;
  fx.Build(options, 4);
  fx.pool->ResetStats();

  // All threads hammer one page: the io_in_progress protocol must coalesce
  // the misses into a single disk read.
  const PageId id = fx.pages[0];
  constexpr size_t kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < 500; ++i) {
        Result<PageGuard> g = fx.pool->FetchPage(id);
        if (!g.ok() || g.value().data()[1] != static_cast<char>(id & 0xff)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const BufferPoolStats stats = fx.pool->stats();
  EXPECT_EQ(stats.disk_reads, 1u);
  EXPECT_EQ(stats.logical_reads, kThreads * 500u);
}

TEST(ConcurrentBufferPool, SmallPoolsCollapseToOneShard) {
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 16;  // < 2 * kMinFramesPerShard
  options.pool_shards = 8;
  TempFile file("conc_one_shard");
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  BufferPool pool(&disk, options);
  EXPECT_EQ(pool.num_shards(), 1u);
  EXPECT_EQ(pool.capacity(), 16u);
}

// ----------------------------------------------- read-ahead + cache drops --

TEST(ChunkReadAheadTest, ParallelRunRecordsPrefetches) {
  TempFile file("conc_prefetch");
  DatabaseOptions options = SmallDbOptions();
  options.storage.prefetch_depth = 4;
  options.storage.io_pool_threads = 2;
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(400, 23)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(db->storage()->io_pool(), nullptr);

  ASSERT_OK(db->DropCaches());
  db->storage()->pool()->ResetStats();
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult result,
                       ConsolidateAt(*db->olap(), q, 2));
  EXPECT_TRUE(result.SameAs(BruteForce(data, q)));
  const BufferPoolStats stats = db->storage()->pool()->stats();
  // The read-ahead window covers every chunk after the first claim.
  EXPECT_GT(stats.prefetched, 0u);
}

TEST(ChunkReadAheadTest, DisabledPoolStillCorrect) {
  TempFile file("conc_noprefetch");
  DatabaseOptions options = SmallDbOptions();
  options.storage.io_pool_threads = 0;  // no pool, no read-ahead
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(300, 29)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  EXPECT_EQ(db->storage()->io_pool(), nullptr);
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(query::GroupedResult result,
                       ConsolidateAt(*db->olap(), q, 4));
  EXPECT_TRUE(result.SameAs(BruteForce(data, q)));
  EXPECT_EQ(db->storage()->pool()->stats().prefetched, 0u);
}

TEST(ChunkReadAheadTest, DropCachesBetweenParallelRunsIsSafe) {
  TempFile file("conc_dropcaches");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(350, 31)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query2(3);
  const query::GroupedResult expected = BruteForce(data, q);
  // Alternate parallel queries with cache drops: DropCaches quiesces the
  // prefetcher (idle-parked between queries) before evicting, so the
  // background pool can never re-warm or race the sweep.
  for (int round = 0; round < 5; ++round) {
    ASSERT_OK(db->DropCaches());
    ASSERT_OK_AND_ASSIGN(query::GroupedResult result,
                         ConsolidateAt(*db->olap(), q, 4));
    ASSERT_TRUE(result.SameAs(expected)) << "round " << round;
  }
  ASSERT_OK(db->DropCaches());
  EXPECT_EQ(db->storage()->pool()->pinned_frames(), 0u);
}

// ------------------------------------------- faults under concurrency --

struct FaultedDb {
  TempFile file{"conc_fault"};
  gen::SyntheticDataset data;
  FaultInjectingDiskManager* faults = nullptr;
  std::unique_ptr<Database> db;
};

void BuildFaultedDb(FaultedDb* out, size_t read_retry_limit) {
  ASSERT_OK_AND_ASSIGN(out->data, gen::Generate(TinyConfig(200, 5)));
  DatabaseOptions options = SmallDbOptions();
  options.storage.read_retry_limit = read_retry_limit;
  options.storage.read_retry_backoff_micros = 0;
  FaultInjectingDiskManager** slot = &out->faults;
  options.storage.wrap_disk = [slot](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    *slot = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  ASSERT_OK_AND_ASSIGN(
      out->db, BuildDatabaseFromDataset(out->file.path(), out->data, options));
  ASSERT_NE(out->faults, nullptr);
}

TEST(ConcurrentFaults, TransientReadFaultsRetryToExactAnswer) {
  FaultedDb f;
  BuildFaultedDb(&f, /*read_retry_limit=*/4);
  if (::testing::Test::HasFatalFailure()) return;
  const query::ConsolidationQuery q = gen::Query1(3);
  const query::GroupedResult expected = BruteForce(f.data, q);

  // A bounded burst of probabilistic read errors: retries must absorb every
  // one of them, concurrently, and produce the exact answer.
  for (int round = 0; round < 4; ++round) {
    ASSERT_OK(f.db->DropCaches());
    FaultInjectionOptions faults;
    faults.seed = 1000 + round;
    faults.read_error_probability = 0.05;
    faults.max_injected_faults = 3;  // transient: retry always succeeds
    f.faults->Arm(faults);
    ASSERT_OK_AND_ASSIGN(query::GroupedResult result,
                         ConsolidateAt(*f.db->olap(), q, 4));
    f.faults->Arm(FaultInjectionOptions{});  // disarm
    EXPECT_TRUE(result.SameAs(expected)) << "round " << round;
  }
}

TEST(ConcurrentFaults, HeavyFaultsNeverYieldWrongAnswer) {
  FaultedDb f;
  BuildFaultedDb(&f, /*read_retry_limit=*/0);  // no retries: errors surface
  if (::testing::Test::HasFatalFailure()) return;

  const query::ConsolidationQuery queries[] = {gen::Query1(3), gen::Query2(3)};
  const query::GroupedResult expected[] = {BruteForce(f.data, queries[0]),
                                           BruteForce(f.data, queries[1])};
  int failures_seen = 0;
  for (int round = 0; round < 12; ++round) {
    const size_t qi = round % 2;
    ASSERT_OK(f.db->DropCaches());
    FaultInjectionOptions faults;
    faults.seed = 7000 + round;
    // Unbounded fault budget and no retries: some reads fail outright, so
    // the query may (and sometimes must) error — but it must never be wrong.
    faults.read_error_probability = 0.06;
    f.faults->Arm(faults);
    Result<query::GroupedResult> result =
        ConsolidateAt(*f.db->olap(), queries[qi], 4);
    f.faults->Arm(FaultInjectionOptions{});  // disarm
    if (result.ok()) {
      EXPECT_TRUE(result.value().SameAs(expected[qi]))
          << "round " << round << ": fault produced a wrong answer";
    } else {
      ++failures_seen;
      EXPECT_FALSE(result.status().ToString().empty());
    }
  }
  // Statistically certain with these probabilities; documents that the
  // error path (not just the retry path) was exercised.
  EXPECT_GT(failures_seen, 0);
}

TEST(ConcurrentFaults, ConcurrentQueriesOverOneFaultyPool) {
  FaultedDb f;
  BuildFaultedDb(&f, /*read_retry_limit=*/2);
  if (::testing::Test::HasFatalFailure()) return;
  const query::ConsolidationQuery q = gen::Query1(3);
  const query::GroupedResult expected = BruteForce(f.data, q);

  FaultInjectionOptions faults;
  faults.seed = 77;
  faults.read_error_probability = 0.02;
  f.faults->Arm(faults);

  // Several serial consolidations racing on one pool — queries only read,
  // so they may overlap freely; each must be exact or an error.
  constexpr size_t kThreads = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        Result<query::GroupedResult> result =
            ArrayConsolidate(*f.db->olap(), q);
        if (result.ok() && !result.value().SameAs(expected)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  f.faults->Arm(FaultInjectionOptions{});
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(f.db->storage()->pool()->pinned_frames(), 0u);
}

}  // namespace
}  // namespace paradise
