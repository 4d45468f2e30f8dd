// Microbenchmarks for the storage substrate: page checksums, buffer-pool
// hit/miss paths and large-object create/read.
#include <benchmark/benchmark.h>

#include "common/crc32c.h"

#include "bench_util.h"
#include "storage/storage_manager.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

namespace {

struct StorageFixture {
  StorageFixture() : file("micro_storage") {
    StorageOptions options;
    options.page_size = 8192;
    options.buffer_pool_pages = 1024;
    PARADISE_CHECK_OK(storage.Create(file.path(), options));
  }
  BenchFile file;
  StorageManager storage;
};

// One 8 KiB page's checksum: Arg(0) the portable slice-by-8 tables, Arg(1)
// the dispatched Crc32c (the SSE4.2 instruction where the CPU has it).
void BM_Crc32cPage(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::string page(8192, '\0');
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<char>(i * 37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatched
                                 ? Crc32c(page.data(), page.size())
                                 : Crc32cPortable(page.data(), page.size()));
  }
  state.SetLabel(!dispatched ? "portable"
                 : Crc32cHardwareAccelerated() ? "sse4.2"
                                               : "portable (no sse4.2)");
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Crc32cPage)->Arg(0)->Arg(1);

void BM_BufferPoolHit(benchmark::State& state) {
  StorageFixture f;
  PageId id = kInvalidPageId;
  {
    Result<PageGuard> g = f.storage.pool()->NewPage();
    PARADISE_CHECK_OK(g.status());
    id = g->page_id();
  }
  for (auto _ : state) {
    Result<PageGuard> g = f.storage.pool()->FetchPage(id);
    benchmark::DoNotOptimize(g->data());
  }
}
BENCHMARK(BM_BufferPoolHit);

void BM_BufferPoolMissEvict(benchmark::State& state) {
  StorageFixture f;
  // Twice as many pages as frames: every fetch in the cycle misses.
  const size_t n = 2048;
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) {
    Result<PageGuard> g = f.storage.pool()->NewPage();
    PARADISE_CHECK_OK(g.status());
    ids.push_back(g->page_id());
  }
  PARADISE_CHECK_OK(f.storage.pool()->FlushAndEvictAll());
  size_t i = 0;
  for (auto _ : state) {
    Result<PageGuard> g = f.storage.pool()->FetchPage(ids[i]);
    benchmark::DoNotOptimize(g->data());
    i = (i + 997) % n;  // stride to defeat the pool
  }
}
BENCHMARK(BM_BufferPoolMissEvict);

void BM_LargeObjectCreate(benchmark::State& state) {
  StorageFixture f;
  const std::string blob(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    Result<ObjectId> oid = f.storage.objects()->Create(blob);
    PARADISE_CHECK_OK(oid.status());
    PARADISE_CHECK_OK(f.storage.objects()->Free(*oid));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LargeObjectCreate)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_LargeObjectRead(benchmark::State& state) {
  StorageFixture f;
  const std::string blob(static_cast<size_t>(state.range(0)), 'x');
  Result<ObjectId> oid = f.storage.objects()->Create(blob);
  PARADISE_CHECK_OK(oid.status());
  for (auto _ : state) {
    Result<std::string> data = f.storage.objects()->Read(*oid);
    benchmark::DoNotOptimize(data->size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LargeObjectRead)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// A 1.5 KiB range of a 1.2 MB object with a warm pool, the shape of one
// chunk read from a DataSet1(1000) array's data object. The ranges step
// through the whole object; its 147 data-page ids all fit the 8 KiB header
// page, so the cost is the header fetch, the one or two ids the range needs
// and the data-page copies.
void BM_LargeObjectReadRange(benchmark::State& state) {
  StorageFixture f;
  const size_t object_bytes = 1200 * 1000;
  const size_t range_bytes = 1536;
  Result<ObjectId> oid =
      f.storage.objects()->Create(std::string(object_bytes, 'r'));
  PARADISE_CHECK_OK(oid.status());
  uint64_t offset = 0;
  for (auto _ : state) {
    Result<std::string> data =
        f.storage.objects()->ReadRange(*oid, offset, range_bytes);
    benchmark::DoNotOptimize(data->size());
    offset = (offset + range_bytes) % (object_bytes - range_bytes);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(range_bytes));
}
BENCHMARK(BM_LargeObjectReadRange);

}  // namespace

BENCHMARK_MAIN();
