// Concurrency suite for the sharded storage path: multi-threaded buffer
// pool torture (distinct pages, same-page races, eviction pressure), the
// background I/O pool, chunk read-ahead accounting, quiesced cache drops,
// and fault injection under concurrency — a parallel query over a faulty
// disk must return either the exact fault-free answer or a non-OK Status,
// never a silently wrong result.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "array/chunk_prefetcher.h"
#include "common/cancellation.h"
#include "common/random.h"
#include "core/consolidate.h"
#include "core/morsel.h"
#include "ingest/ingest.h"
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
using paradise::testing::HookedDisk;
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
  EXPECT_EQ(ran.load(), 1);  // an accepted task runs, shutdown or not
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

// A cube of 8 chunks of 7680 cells, 78% valid: each chunk is stored over
// several 4 KiB pages under every codec.
gen::GenConfig MultiPageChunkConfig() {
  gen::GenConfig config = TinyConfig(48000, 41);
  const uint32_t sizes[3] = {48, 32, 40};
  for (size_t d = 0; d < 3; ++d) config.dims[d].size = sizes[d];
  config.chunk_extents = {24, 16, 20};
  return config;
}

struct ScanRun {
  query::GroupedResult result;
  BufferPoolStats io;
};

// One consolidation from an emptied pool. Every run of a test reads the
// same pages in the same order, so each starts with the simulated disk head
// where the previous one left it and the seq/rand split is comparable.
ScanRun ColdScan(Database* db, const query::ConsolidationQuery& q,
                 size_t threads) {
  ScanRun run;
  EXPECT_OK(db->DropCaches());
  db->storage()->pool()->ResetStats();
  Result<query::GroupedResult> r = ConsolidateAt(*db->olap(), q, threads);
  EXPECT_OK(r.status());
  if (r.ok()) run.result = std::move(r).value();
  run.io = db->storage()->pool()->stats();
  return run;
}

void ExpectSameReads(const BufferPoolStats& got, const BufferPoolStats& want) {
  EXPECT_EQ(got.disk_reads, want.disk_reads);
  EXPECT_EQ(got.seq_disk_reads, want.seq_disk_reads);
  EXPECT_EQ(got.rand_disk_reads, want.rand_disk_reads);
  EXPECT_EQ(got.logical_reads, want.logical_reads);
}

TEST(ChunkReadAheadTest, ColdScansReadExactlyLikeTheSynchronousScan) {
  const gen::GenConfig configs[] = {TinyConfig(400, 23),
                                    MultiPageChunkConfig()};
  for (const gen::GenConfig& config : configs) {
    SCOPED_TRACE(config.num_valid_cells);
    ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
    const query::ConsolidationQuery q = gen::Query1(3);
    const query::GroupedResult expected = BruteForce(data, q);

    // The synchronous reference: the same file built without an I/O pool.
    TempFile sync_file("conc_exact_counts_sync");
    DatabaseOptions sync_options = SmallDbOptions();
    sync_options.storage.io_pool_threads = 0;
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> sync_db,
        BuildDatabaseFromDataset(sync_file.path(), data, sync_options));
    ColdScan(sync_db.get(), q, 1);  // puts the disk head in place
    const ScanRun sync = ColdScan(sync_db.get(), q, 1);
    EXPECT_TRUE(sync.result.SameAs(expected));
    EXPECT_EQ(sync.io.prefetched, 0u);
    ASSERT_GT(sync.io.disk_reads, 0u);

    TempFile file("conc_exact_counts");
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    ASSERT_NE(db->storage()->io_pool(), nullptr);
    ColdScan(db.get(), q, 1);  // puts the disk head in place
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(round);
      const ScanRun serial = ColdScan(db.get(), q, 1);
      EXPECT_TRUE(serial.result.SameAs(expected));
      ExpectSameReads(serial.io, sync.io);
      EXPECT_GT(serial.io.prefetched, 0u);
      const ScanRun parallel = ColdScan(db.get(), q, 2);
      EXPECT_TRUE(parallel.result.SameAs(expected));
      ExpectSameReads(parallel.io, sync.io);
    }
  }
}

TEST(ChunkReadAheadTest, MultiPageChunksAreReadWhole) {
  TempFile file("conc_multipage");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(MultiPageChunkConfig()));
  const DatabaseOptions options = SmallDbOptions();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  const ChunkedArray& array = db->olap()->array();
  std::vector<uint64_t> chunks;
  for (uint64_t c = 0; c < array.layout().num_chunks(); ++c) {
    if (!array.ChunkIsEmpty(c)) chunks.push_back(c);
  }
  ASSERT_GE(chunks.size(), 3u);
  // Chunk 2 shares no page with chunk 0, whose read also cached the
  // directory: its own page reads show it spans several pages.
  ASSERT_OK(db->DropCaches());
  ASSERT_OK(array.ReadChunkParts(chunks[0]).status());
  db->storage()->pool()->ResetStats();
  ASSERT_OK(array.ReadChunkParts(chunks[2]).status());
  ASSERT_GE(db->storage()->pool()->stats().disk_reads, 2u);
  // Windows of one chunk (a handoff per chunk), a few chunks, and all.
  for (size_t window : {size_t{1}, size_t{3} * options.storage.page_size,
                        size_t{1} << 20}) {
    SCOPED_TRACE(window);
    ASSERT_OK(db->DropCaches());
    db->storage()->pool()->ResetStats();
    {
      ChunkReadAhead cursor(&array, chunks, window, db->storage()->io_pool(),
                            db->storage()->pool());
      for (const uint64_t want : chunks) {
        uint64_t chunk_no = 0;
        ChunkedArray::ChunkParts parts;
        ASSERT_OK_AND_ASSIGN(bool more, cursor.Next(&chunk_no, &parts));
        ASSERT_TRUE(more);
        EXPECT_EQ(chunk_no, want);
        ASSERT_OK_AND_ASSIGN(ChunkedArray::ChunkParts direct,
                             array.ReadChunkParts(want));
        EXPECT_EQ(parts.base, direct.base);
      }
      uint64_t chunk_no = 0;
      ChunkedArray::ChunkParts parts;
      ASSERT_OK_AND_ASSIGN(bool more, cursor.Next(&chunk_no, &parts));
      EXPECT_FALSE(more);
    }
    const BufferPoolStats stats = db->storage()->pool()->stats();
    EXPECT_EQ(stats.prefetched, chunks.size());
    EXPECT_EQ(stats.prefetch_wasted, 0u);
    EXPECT_EQ(db->storage()->pool()->pinned_frames(), 0u);
  }
}

TEST(ChunkReadAheadTest, WarmSerialScanReadsItself) {
  TempFile file("conc_warm_serial");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(400, 37)));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(Execution cold,
                       RunQuery(db.get(), EngineKind::kArray, q));
  EXPECT_GT(cold.stats.io.disk_reads, 0u);
  EXPECT_GT(cold.stats.io.prefetched, 0u);
  // The rerun finds the array's pages buffered and reads them itself.
  RunQueryOptions warm;
  warm.cold = false;
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kArray, q, warm));
  EXPECT_TRUE(exec.result.SameAs(BruteForce(data, q)));
  EXPECT_TRUE(exec.result.SameAs(cold.result));
  EXPECT_EQ(exec.stats.io.disk_reads, 0u);
  EXPECT_EQ(exec.stats.io.prefetched, 0u);
  EXPECT_EQ(exec.stats.io.prefetch_hits, 0u);

  // A commit and a compaction write the new data object through the pool,
  // so the ingest readers' next scans still find it buffered.
  ASSERT_OK(db->ingest()->Write(data.CellKeys(data.cell_global_indices[0]),
                                {int64_t{7}}));
  ASSERT_OK(db->ingest()->Commit());
  ASSERT_OK_AND_ASSIGN(Execution committed,
                       RunQuery(db.get(), EngineKind::kArray, q, warm));
  EXPECT_EQ(committed.stats.io.prefetched, 0u);
  ASSERT_OK(db->ingest()->Compact());
  ASSERT_OK_AND_ASSIGN(Execution compacted,
                       RunQuery(db.get(), EngineKind::kArray, q, warm));
  EXPECT_TRUE(compacted.result.SameAs(committed.result));
  EXPECT_EQ(compacted.stats.io.disk_reads, 0u);
  EXPECT_EQ(compacted.stats.io.prefetched, 0u);
}

TEST(ChunkReadAheadTest, ReadFaultMidScanReturnsItsStatus) {
  TempFile file("conc_reader_fault");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(MultiPageChunkConfig()));
  DatabaseOptions options = SmallDbOptions();
  options.storage.read_retry_limit = 0;
  FaultInjectingDiskManager* faults = nullptr;
  options.storage.wrap_disk = [&faults](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(faults, nullptr);
  const query::ConsolidationQuery q = gen::Query1(3);
  const ScanRun clean = ColdScan(db.get(), q, 1);
  ASSERT_GT(clean.io.disk_reads, 6u);
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(threads);
    ASSERT_OK(db->DropCaches());
    FaultInjectionOptions schedule;
    schedule.fail_nth_read = clean.io.disk_reads / 2;
    faults->Arm(schedule);
    Result<query::GroupedResult> r = ConsolidateAt(*db->olap(), q, threads);
    faults->Arm(FaultInjectionOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
    EXPECT_EQ(db->storage()->pool()->pinned_frames(), 0u);
    // Nothing is left behind: the next cold scan is exact.
    const ScanRun again = ColdScan(db.get(), q, threads);
    EXPECT_TRUE(again.result.SameAs(clean.result));
  }
}

TEST(ChunkReadAheadTest, CancelMidScanStopsWithinOneChunk) {
  TempFile file("conc_reader_cancel");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(MultiPageChunkConfig()));
  DatabaseOptions options = SmallDbOptions();
  HookedDisk* disk = nullptr;
  HookedDisk::Install(&options.storage, &disk);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(disk, nullptr);
  const ChunkedArray& array = db->olap()->array();
  std::vector<uint64_t> chunks;
  for (uint64_t c = 0; c < array.layout().num_chunks(); ++c) {
    if (!array.ChunkIsEmpty(c)) chunks.push_back(c);
  }
  ASSERT_GE(chunks.size(), 8u);

  // The executor's loop over the cursor: the token fires from the reader
  // thread, inside the third page read, and the consumer may finish at most
  // the chunk it was already waiting for.
  {
    ASSERT_OK(db->DropCaches());
    CancellationToken token;
    std::atomic<int> reads{0};
    disk->set_on_read([&token, &reads] {
      if (reads.fetch_add(1) + 1 == 3) token.RequestCancel();
    });
    ChunkReadAhead cursor(&array, chunks, size_t{1} << 20,
                          db->storage()->io_pool(), db->storage()->pool());
    MorselPool morsels(&cursor, nullptr, UINT32_MAX, &token);
    size_t after_fire = 0;
    Morsel m;
    Result<bool> more = true;
    while (more.ok() && *more) {
      more = morsels.Next(0, &m);
      if (more.ok() && *more && token.cancel_requested()) ++after_fire;
    }
    disk->set_on_read(nullptr);
    ASSERT_FALSE(more.ok());
    EXPECT_TRUE(more.status().IsCancelled()) << more.status().ToString();
    EXPECT_LE(after_fire, 1u);
  }
  EXPECT_EQ(db->storage()->pool()->pinned_frames(), 0u);

  // The same through RunQuery's cold protocol, then a clean rerun.
  CancellationToken token;
  std::atomic<int> reads{0};
  disk->set_on_read([&token, &reads] {
    if (reads.fetch_add(1) + 1 == 3) token.RequestCancel();
  });
  RunQueryOptions cancellable;
  cancellable.cancel = &token;
  const query::ConsolidationQuery q = gen::Query1(3);
  Result<Execution> r = RunQuery(db.get(), EngineKind::kArray, q, cancellable);
  EXPECT_TRUE(token.cancel_requested()) << "only " << reads << " reads";
  disk->set_on_read(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  EXPECT_EQ(db->storage()->pool()->pinned_frames(), 0u);
  ASSERT_OK_AND_ASSIGN(Execution clean,
                       RunQuery(db.get(), EngineKind::kArray, q));
  EXPECT_TRUE(clean.result.SameAs(BruteForce(data, q)));
}

TEST(ChunkReadAheadTest, ShutdownWithQueuedReadsReturns) {
  TempFile file("conc_reader_shutdown");
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(400, 47)));
  // Everything the scan thread touches is shared with it, so a hung scan
  // reported below still holds live objects.
  ASSERT_OK_AND_ASSIGN(
      std::shared_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
  auto array = std::make_shared<ChunkedArray>(db->olap()->array());
  std::vector<uint64_t> chunks;
  for (uint64_t c = 0; c < array->layout().num_chunks(); ++c) {
    if (!array->ChunkIsEmpty(c)) chunks.push_back(c);
  }
  ASSERT_OK_AND_ASSIGN(ChunkedArray::ChunkParts first,
                       array->ReadChunkParts(chunks[0]));
  ASSERT_OK(db->DropCaches());

  // The scan's reader queues behind a busy task; the pool shuts down while
  // the consumer waits for it. The scan must still finish: the queued reader
  // runs, and later grants fall back to synchronous reads.
  auto io = std::make_shared<IoPool>(1);
  ASSERT_TRUE(io->Submit(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(300)); }));
  struct Outcome {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    size_t chunks = 0;
    Status status;
  };
  auto outcome = std::make_shared<Outcome>();
  std::thread scan([array, chunks, io, outcome, db,
                    window = 2 * first.base.size()] {
    size_t n = 0;
    Status status;
    {
      // A window of about two chunks: the reader is submitted again after
      // Shutdown.
      ChunkReadAhead cursor(array.get(), chunks, window, io.get(),
                            db->storage()->pool());
      for (;;) {
        uint64_t chunk_no = 0;
        ChunkedArray::ChunkParts parts;
        Result<bool> more = cursor.Next(&chunk_no, &parts);
        if (!more.ok()) {
          status = more.status();
          break;
        }
        if (!*more) break;
        ++n;
      }
    }
    std::lock_guard<std::mutex> lock(outcome->mu);
    outcome->done = true;
    outcome->chunks = n;
    outcome->status = status;
    outcome->cv.notify_all();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  io->Shutdown();
  std::unique_lock<std::mutex> lock(outcome->mu);
  const bool finished = outcome->cv.wait_for(
      lock, std::chrono::seconds(20), [&outcome] { return outcome->done; });
  lock.unlock();
  if (!finished) {
    scan.detach();  // hung: report it instead of hanging the suite
    FAIL() << "the scan did not return after IoPool::Shutdown";
  }
  scan.join();
  EXPECT_OK(outcome->status);
  EXPECT_EQ(outcome->chunks, chunks.size());
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
