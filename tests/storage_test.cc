// Tests for the storage manager substrate: disk manager, buffer pool,
// extent allocator, large objects and the StorageManager facade.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/extent_allocator.h"
#include "storage/large_object.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::TempFile;

StorageOptions SmallOptions() {
  StorageOptions o;
  o.page_size = 4096;
  o.buffer_pool_pages = 16;
  o.pages_per_extent = 4;
  return o;
}

TEST(DiskManagerTest, CreateWriteReadReopen) {
  TempFile file("disk");
  const StorageOptions options = SmallOptions();
  std::vector<char> page(options.page_size, 'x');
  PageId id = kInvalidPageId;
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
    ASSERT_OK_AND_ASSIGN(id, disk.AllocatePage());
    EXPECT_GT(id, 0u);
    ASSERT_OK(disk.WritePage(id, page.data()));
    ASSERT_OK(disk.Close());
  }
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), options));
    std::vector<char> readback(options.page_size);
    ASSERT_OK(disk.ReadPage(id, readback.data()));
    EXPECT_EQ(readback, page);
  }
}

TEST(DiskManagerTest, CreateRefusesExistingFile) {
  TempFile file("disk_exists");
  StorageOptions options = SmallOptions();
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
  }
  DiskManager disk2;
  EXPECT_TRUE(disk2.Create(file.path(), options).IsAlreadyExists());
  options.allow_overwrite = true;
  DiskManager disk3;
  EXPECT_OK(disk3.Create(file.path(), options));
}

TEST(DiskManagerTest, OpenRejectsWrongPageSize) {
  TempFile file("disk_ps");
  StorageOptions options = SmallOptions();
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
  }
  options.page_size = 8192;
  DiskManager disk2;
  EXPECT_TRUE(disk2.Open(file.path(), options).IsInvalidArgument());
}

TEST(DiskManagerTest, OpenRejectsGarbageFile) {
  TempFile file("disk_garbage");
  {
    std::FILE* f = std::fopen(file.path().c_str(), "wb");
    std::string junk(8192, 'j');
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  DiskManager disk;
  EXPECT_TRUE(disk.Open(file.path(), SmallOptions()).IsCorruption());
}

TEST(DiskManagerTest, FreeListReusesPages) {
  TempFile file("disk_free");
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), SmallOptions()));
  ASSERT_OK_AND_ASSIGN(PageId a, disk.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, disk.AllocatePage());
  EXPECT_NE(a, b);
  ASSERT_OK(disk.FreePage(a));
  ASSERT_OK_AND_ASSIGN(PageId c, disk.AllocatePage());
  EXPECT_EQ(c, a);  // reused from the free list
  EXPECT_TRUE(disk.FreePage(0).IsInvalidArgument());  // header protected
}

TEST(DiskManagerTest, FreeListSurvivesReopen) {
  TempFile file("disk_free_reopen");
  PageId freed = kInvalidPageId;
  uint64_t page_count = 0;
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), SmallOptions()));
    ASSERT_OK_AND_ASSIGN(freed, disk.AllocatePage());
    ASSERT_OK_AND_ASSIGN(PageId other, disk.AllocatePage());
    (void)other;
    ASSERT_OK(disk.FreePage(freed));
    page_count = disk.page_count();
    ASSERT_OK(disk.Close());
  }
  DiskManager disk;
  ASSERT_OK(disk.Open(file.path(), SmallOptions()));
  EXPECT_EQ(disk.page_count(), page_count);
  ASSERT_OK_AND_ASSIGN(PageId again, disk.AllocatePage());
  EXPECT_EQ(again, freed);
}

TEST(DiskManagerTest, AllocateContiguousIsContiguous) {
  TempFile file("disk_contig");
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), SmallOptions()));
  ASSERT_OK_AND_ASSIGN(PageId first, disk.AllocateContiguous(8));
  EXPECT_EQ(disk.page_count(), first + 8);
  // All 8 pages are readable.
  std::vector<char> buf(SmallOptions().page_size);
  for (PageId p = first; p < first + 8; ++p) {
    EXPECT_OK(disk.ReadPage(p, buf.data()));
  }
}

TEST(DiskManagerTest, ReadBeyondEofFails) {
  TempFile file("disk_oob");
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), SmallOptions()));
  std::vector<char> buf(SmallOptions().page_size);
  EXPECT_TRUE(disk.ReadPage(99, buf.data()).IsOutOfRange());
  EXPECT_TRUE(disk.ReadPage(kInvalidPageId, buf.data()).IsOutOfRange());
}

TEST(DiskManagerTest, ReadSeesUnflushedWrite) {
  TempFile file("disk_unflushed");
  const StorageOptions options = SmallOptions();
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  ASSERT_OK_AND_ASSIGN(const PageId id, disk.AllocatePage());
  std::vector<char> page(options.page_size);
  for (size_t i = 0; i < page.size(); ++i) page[i] = static_cast<char>(i * 7);
  ASSERT_OK(disk.WritePage(id, page.data()));
  std::vector<char> readback(options.page_size);
  ASSERT_OK(disk.ReadPage(id, readback.data()));
  EXPECT_EQ(readback, page);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("pool");
    options_ = SmallOptions();
    ASSERT_OK(disk_.Create(file_->path(), options_));
    pool_ = std::make_unique<BufferPool>(&disk_, options_);
  }

  std::unique_ptr<TempFile> file_;
  StorageOptions options_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndPinned) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
  for (size_t i = 0; i < options_.page_size; ++i) {
    ASSERT_EQ(g.data()[i], 0) << "byte " << i;
  }
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  g.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, WritesSurviveEviction) {
  PageId id;
  {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
    id = g.page_id();
    g.mutable_data()[0] = 'Z';
  }
  ASSERT_OK(pool_->FlushAndEvictAll());
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->FetchPage(id));
  EXPECT_EQ(g.data()[0], 'Z');
}

TEST_F(BufferPoolTest, HitsAreCountedAndCheap) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
  const PageId id = g.page_id();
  g.Release();
  pool_->ResetStats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard h, pool_->FetchPage(id));
  }
  EXPECT_EQ(pool_->stats().logical_reads, 5u);
  EXPECT_EQ(pool_->stats().hits, 5u);
  EXPECT_EQ(pool_->stats().disk_reads, 0u);
}

TEST_F(BufferPoolTest, EvictsUnpinnedPagesUnderPressure) {
  // Allocate twice the pool capacity; everything must still round-trip.
  std::vector<PageId> ids;
  for (size_t i = 0; i < options_.buffer_pool_pages * 2; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
    g.mutable_data()[0] = static_cast<char>(i);
    ids.push_back(g.page_id());
  }
  EXPECT_GT(pool_->stats().evictions, 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->FetchPage(ids[i]));
    EXPECT_EQ(g.data()[0], static_cast<char>(i));
  }
}

TEST_F(BufferPoolTest, AllPinnedIsResourceExhausted) {
  std::vector<PageGuard> guards;
  for (size_t i = 0; i < options_.buffer_pool_pages; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
    guards.push_back(std::move(g));
  }
  Result<PageGuard> extra = pool_->NewPage();
  EXPECT_TRUE(extra.status().IsResourceExhausted());
  guards.clear();
  EXPECT_TRUE(pool_->NewPage().ok());
}

TEST_F(BufferPoolTest, DeletePageDropsAndFrees) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
  const PageId id = g.page_id();
  EXPECT_TRUE(pool_->DeletePage(id).IsInvalidArgument());  // still pinned
  g.Release();
  ASSERT_OK(pool_->DeletePage(id));
  // The freed page is reused by the next allocation.
  ASSERT_OK_AND_ASSIGN(PageGuard g2, pool_->NewPage());
  EXPECT_EQ(g2.page_id(), id);
}

TEST_F(BufferPoolTest, MoveTransfersPin) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
  PageGuard moved = std::move(g);
  EXPECT_FALSE(g.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(pool_->pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pool_->pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, FlushAndEvictEmptiesPool) {
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
    g.mutable_data()[0] = 1;
  }
  ASSERT_OK(pool_->FlushAndEvictAll());
  pool_->ResetStats();
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->FetchPage(1));
  EXPECT_EQ(pool_->stats().disk_reads, 1u);  // cold again
}

TEST(BufferPoolStatsTest, DeltaSaturatesInsteadOfUnderflowing) {
  // The bench harness snapshots stats, runs a warm-up, calls ResetStats(),
  // then snapshots again: the later counters are SMALLER than the earlier
  // ones. A raw unsigned subtract turned every delta into ~2^64.
  BufferPoolStats earlier;
  earlier.logical_reads = 100;
  earlier.hits = 80;
  earlier.disk_reads = 20;
  earlier.seq_disk_reads = 12;
  earlier.rand_disk_reads = 8;
  earlier.disk_writes = 5;
  earlier.evictions = 3;
  earlier.read_retries = 2;
  earlier.coalesced_reads = 4;
  earlier.prefetched = 6;
  earlier.prefetch_hits = 5;
  earlier.prefetch_wasted = 1;
  BufferPoolStats later;  // all zero, as right after ResetStats()
  later.logical_reads = 10;
  later.hits = 4;
  const BufferPoolStats d = later.Delta(earlier);
  EXPECT_EQ(d.logical_reads, 0u);
  EXPECT_EQ(d.hits, 0u);
  EXPECT_EQ(d.disk_reads, 0u);
  EXPECT_EQ(d.seq_disk_reads, 0u);
  EXPECT_EQ(d.rand_disk_reads, 0u);
  EXPECT_EQ(d.disk_writes, 0u);
  EXPECT_EQ(d.evictions, 0u);
  EXPECT_EQ(d.read_retries, 0u);
  EXPECT_EQ(d.coalesced_reads, 0u);
  EXPECT_EQ(d.prefetched, 0u);
  EXPECT_EQ(d.prefetch_hits, 0u);
  EXPECT_EQ(d.prefetch_wasted, 0u);
  // The normal monotonic direction still subtracts exactly.
  const BufferPoolStats forward = earlier.Delta(later);
  EXPECT_EQ(forward.logical_reads, 90u);
  EXPECT_EQ(forward.hits, 76u);
  EXPECT_EQ(forward.disk_reads, 20u);
}

TEST(BufferPoolStatsTest, DeltaAcrossResetStatsStaysSane) {
  TempFile file("pool_delta_reset");
  StorageOptions options = SmallOptions();
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  BufferPool pool(&disk, options);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.NewPage());
    ids.push_back(g.page_id());
  }
  for (PageId id : ids) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.FetchPage(id));
  }
  const BufferPoolStats before = pool.stats();
  ASSERT_GT(before.logical_reads, 0u);
  pool.ResetStats();
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool.FetchPage(ids[0]));
  const BufferPoolStats delta = pool.stats().Delta(before);
  // One fetch happened since the reset; every field must be small, not 2^64.
  EXPECT_LE(delta.logical_reads, 1u);
  EXPECT_LE(delta.hits, 1u);
  EXPECT_LE(delta.disk_reads, 1u);
}

// Random fetches over 64 pages through an 8-frame clock pool: every victim
// choice must still hand back the page's own bytes.
TEST(BufferPoolLruTest, BothPoliciesSurviveThrashing) {
  TempFile file("pool_thrash");
  StorageOptions options = SmallOptions();
  options.buffer_pool_pages = 8;
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  BufferPool pool(&disk, options);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.NewPage());
    g.mutable_data()[0] = static_cast<char>(i);
    ids.push_back(g.page_id());
  }
  Random rng(7);
  for (int i = 0; i < 500; ++i) {
    const size_t pick = rng.Uniform(ids.size());
    ASSERT_OK_AND_ASSIGN(PageGuard g, pool.FetchPage(ids[pick]));
    ASSERT_EQ(g.data()[0], static_cast<char>(pick));
  }
}

class LargeObjectTest : public BufferPoolTest {
 protected:
  void SetUp() override {
    BufferPoolTest::SetUp();
    store_ = std::make_unique<LargeObjectStore>(pool_.get());
  }
  std::unique_ptr<LargeObjectStore> store_;
};

TEST_F(LargeObjectTest, SmallRoundTrip) {
  ASSERT_OK_AND_ASSIGN(ObjectId oid, store_->Create("hello world"));
  ASSERT_OK_AND_ASSIGN(std::string data, store_->Read(oid));
  EXPECT_EQ(data, "hello world");
  ASSERT_OK_AND_ASSIGN(uint64_t size, store_->Size(oid));
  EXPECT_EQ(size, 11u);
}

TEST_F(LargeObjectTest, EmptyObject) {
  ASSERT_OK_AND_ASSIGN(ObjectId oid, store_->Create(""));
  ASSERT_OK_AND_ASSIGN(std::string data, store_->Read(oid));
  EXPECT_TRUE(data.empty());
  ASSERT_OK_AND_ASSIGN(uint64_t pages, store_->PageFootprint(oid));
  EXPECT_EQ(pages, 1u);  // header only
}

TEST_F(LargeObjectTest, MultiPageRoundTrip) {
  std::string big(options_.page_size * 3 + 123, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  ASSERT_OK_AND_ASSIGN(ObjectId oid, store_->Create(big));
  ASSERT_OK_AND_ASSIGN(std::string data, store_->Read(oid));
  EXPECT_EQ(data, big);
  ASSERT_OK_AND_ASSIGN(uint64_t pages, store_->PageFootprint(oid));
  EXPECT_EQ(pages, 1u + 4u);  // header + 4 data pages
}

TEST_F(LargeObjectTest, ReadRange) {
  std::string big(options_.page_size * 2, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 13);
  ASSERT_OK_AND_ASSIGN(ObjectId oid, store_->Create(big));
  // A range straddling the page boundary.
  const uint64_t offset = options_.page_size - 10;
  ASSERT_OK_AND_ASSIGN(std::string range, store_->ReadRange(oid, offset, 20));
  EXPECT_EQ(range, big.substr(offset, 20));
  EXPECT_TRUE(store_->ReadRange(oid, big.size() - 5, 10)
                  .status()
                  .IsOutOfRange());
  // offset + length wraps to 6, which a naive end check would accept.
  EXPECT_TRUE(store_->ReadRange(oid, UINT64_MAX - 3, 10)
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(
      store_->ReadRange(oid, big.size() + 1, 0).status().IsOutOfRange());
}

// A large-object store over 512-byte pages, where the header lists 60 data
// page ids and each overflow directory page 62, so a ~200-page object spans
// the header and three overflow pages.
class TinyPageStore {
 public:
  TinyPageStore() : file_("lob_tiny") {
    options_.page_size = 512;
    options_.buffer_pool_pages = 32;
    PARADISE_CHECK_OK(disk_.Create(file_.path(), options_));
    pool_ = std::make_unique<BufferPool>(&disk_, options_);
    store_ = std::make_unique<LargeObjectStore>(pool_.get());
  }
  BufferPool* pool() { return pool_.get(); }
  LargeObjectStore* store() { return store_.get(); }

 private:
  TempFile file_;
  StorageOptions options_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LargeObjectStore> store_;
};

// Byte offsets in the header and overflow pages (storage/large_object.cc).
constexpr size_t kLobHeaderLength = 4;
constexpr size_t kLobHeaderNextDir = 16;
constexpr size_t kLobHeaderIdCount = 24;
constexpr size_t kLobDirNext = 0;
constexpr size_t kLobDirIdCount = 8;

std::string PatternBytes(size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) s[i] = static_cast<char>((i * 131) ^ (i >> 9));
  return s;
}

TEST_F(LargeObjectTest, ReadRangeAcrossDirectoryPages) {
  TinyPageStore tiny;
  const size_t kPage = 512;
  const std::string big = PatternBytes(200 * kPage - 100);  // 200 data pages
  ASSERT_OK_AND_ASSIGN(ObjectId oid, tiny.store()->Create(big));
  ASSERT_OK_AND_ASSIGN(uint64_t footprint, tiny.store()->PageFootprint(oid));
  EXPECT_EQ(footprint, 1u + 200u + 3u);  // header, data, overflow pages
  ASSERT_OK_AND_ASSIGN(std::string whole, tiny.store()->Read(oid));
  ASSERT_EQ(whole, big);
  ASSERT_OK(tiny.pool()->FlushAndEvictAll());
  struct Range {
    uint64_t offset, length;
  };
  const Range ranges[] = {
      {0, 1},                          // first byte
      {1000, 3000},                    // inside the header's pages
      {59 * kPage + 100, 600},         // header -> first overflow page
      {121 * kPage + 500, 40},         // first -> second overflow page
      {130 * kPage + 7, 2000},         // inside the second overflow page
      {150 * kPage, 40 * kPage},       // second -> third overflow page
      {0, big.size()},                 // everything
      {big.size() - 1, 1},             // the last byte
      {big.size(), 0},                 // zero length at the end
  };
  for (const Range& r : ranges) {
    ASSERT_OK_AND_ASSIGN(std::string got,
                         tiny.store()->ReadRange(oid, r.offset, r.length));
    EXPECT_EQ(got, whole.substr(r.offset, r.length))
        << "range [" << r.offset << ", +" << r.length << ")";
  }
  EXPECT_TRUE(tiny.store()->ReadRange(oid, big.size(), 1)
                  .status()
                  .IsOutOfRange());
}

TEST_F(LargeObjectTest, DirectoryCountsPastCapacityAreCorruption) {
  // Each case rewrites one directory field through the pool, so the page's
  // checksum stays valid, and expects every directory reader to refuse the
  // object instead of decoding ids past the page frame.
  struct Case {
    const char* name;
    bool overflow_page;  // edit the first overflow page, not the header
    size_t field;
    uint64_t value;
    bool wide;  // 64-bit field
  };
  const Case cases[] = {
      {"header id count past 60", false, kLobHeaderIdCount, 61, false},
      {"header id count far past the page", false, kLobHeaderIdCount,
       1u << 20, false},
      {"overflow id count past 62", true, kLobDirIdCount, 63, false},
      {"overflow page links to itself", true, kLobDirNext, 0, true},
      {"length shorter than the data pages", false, kLobHeaderLength, 1,
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TinyPageStore tiny;
    const std::string big = PatternBytes(200 * 512 - 100);
    ASSERT_OK_AND_ASSIGN(ObjectId oid, tiny.store()->Create(big));
    PageId target = oid;
    if (c.overflow_page) {
      ASSERT_OK_AND_ASSIGN(PageGuard h, tiny.pool()->FetchPage(oid));
      target = DecodeFixed64(h.data() + kLobHeaderNextDir);
    }
    {
      ASSERT_OK_AND_ASSIGN(PageGuard g, tiny.pool()->FetchPage(target));
      const uint64_t value = c.value == 0 ? target : c.value;
      if (c.wide) {
        EncodeFixed64(g.mutable_data() + c.field, value);
      } else {
        EncodeFixed32(g.mutable_data() + c.field,
                      static_cast<uint32_t>(value));
      }
    }
    ASSERT_OK(tiny.pool()->FlushAndEvictAll());
    EXPECT_TRUE(tiny.store()->Read(oid).status().IsCorruption());
    if (c.overflow_page) {
      // A range inside the header's pages never reaches the damaged page.
      ASSERT_OK_AND_ASSIGN(std::string head,
                           tiny.store()->ReadRange(oid, 0, 100));
      EXPECT_EQ(head, big.substr(0, 100));
    } else {
      EXPECT_TRUE(tiny.store()->ReadRange(oid, 0, 100).status().IsCorruption());
    }
    EXPECT_TRUE(tiny.store()->ReadRange(oid, big.size() - 1, 1)
                    .status()
                    .IsCorruption());
    EXPECT_TRUE(tiny.store()->PageFootprint(oid).status().IsCorruption());
    EXPECT_TRUE(tiny.store()->Free(oid).IsCorruption());
  }
}

TEST_F(LargeObjectTest, OverwriteChangesSizeAndContent) {
  ASSERT_OK_AND_ASSIGN(ObjectId oid, store_->Create("short"));
  std::string big(options_.page_size + 7, 'Q');
  ASSERT_OK(store_->Overwrite(oid, big));
  ASSERT_OK_AND_ASSIGN(std::string data, store_->Read(oid));
  EXPECT_EQ(data, big);
  ASSERT_OK(store_->Overwrite(oid, "tiny again"));
  ASSERT_OK_AND_ASSIGN(data, store_->Read(oid));
  EXPECT_EQ(data, "tiny again");
}

TEST_F(LargeObjectTest, FreeReturnsPages) {
  const uint64_t before = disk_.page_count();
  ASSERT_OK_AND_ASSIGN(ObjectId oid,
                       store_->Create(std::string(options_.page_size * 2, 'f')));
  ASSERT_OK(store_->Free(oid));
  // Freed pages are reused rather than growing the file.
  ASSERT_OK_AND_ASSIGN(ObjectId oid2,
                       store_->Create(std::string(options_.page_size * 2, 'g')));
  (void)oid2;
  EXPECT_LE(disk_.page_count(), before + 3);
}

TEST_F(LargeObjectTest, ReadOfNonObjectIsCorruption) {
  ASSERT_OK_AND_ASSIGN(PageGuard g, pool_->NewPage());
  const PageId raw = g.page_id();
  g.Release();
  EXPECT_TRUE(store_->Read(raw).status().IsCorruption());
  EXPECT_TRUE(store_->Size(raw).status().IsCorruption());
}

TEST_F(LargeObjectTest, ManyObjectsIndependent) {
  std::vector<ObjectId> oids;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(ObjectId oid,
                         store_->Create("object-" + std::to_string(i)));
    oids.push_back(oid);
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string data, store_->Read(oids[i]));
    EXPECT_EQ(data, "object-" + std::to_string(i));
  }
}

class ExtentAllocatorTest : public BufferPoolTest {};

TEST_F(ExtentAllocatorTest, GrowsInWholeExtents) {
  ExtentAllocator extents(pool_.get(), &disk_);
  ASSERT_OK_AND_ASSIGN(PageId root, extents.Create(4));
  (void)root;
  EXPECT_EQ(extents.logical_page_capacity(), 0u);
  ASSERT_OK(extents.EnsureCapacity(1));
  EXPECT_EQ(extents.logical_page_capacity(), 4u);
  ASSERT_OK(extents.EnsureCapacity(5));
  EXPECT_EQ(extents.logical_page_capacity(), 8u);
  EXPECT_EQ(extents.num_extents(), 2u);
}

TEST_F(ExtentAllocatorTest, LogicalToPhysicalContiguousWithinExtent) {
  ExtentAllocator extents(pool_.get(), &disk_);
  ASSERT_OK(extents.Create(4).status());
  ASSERT_OK(extents.EnsureCapacity(8));
  ASSERT_OK_AND_ASSIGN(PageId p0, extents.LogicalToPhysical(0));
  ASSERT_OK_AND_ASSIGN(PageId p3, extents.LogicalToPhysical(3));
  EXPECT_EQ(p3, p0 + 3);  // same extent => physically adjacent
  ASSERT_OK_AND_ASSIGN(PageId p4, extents.LogicalToPhysical(4));
  ASSERT_OK_AND_ASSIGN(PageId p7, extents.LogicalToPhysical(7));
  EXPECT_EQ(p7, p4 + 3);
  EXPECT_TRUE(extents.LogicalToPhysical(8).status().IsOutOfRange());
}

TEST_F(ExtentAllocatorTest, DirectorySurvivesReopen) {
  ExtentAllocator extents(pool_.get(), &disk_);
  ASSERT_OK_AND_ASSIGN(PageId root, extents.Create(4));
  ASSERT_OK(extents.EnsureCapacity(12));
  std::vector<PageId> mapping;
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId p, extents.LogicalToPhysical(i));
    mapping.push_back(p);
  }
  ASSERT_OK(pool_->FlushAndEvictAll());

  ExtentAllocator reopened(pool_.get(), &disk_);
  ASSERT_OK(reopened.Open(root));
  EXPECT_EQ(reopened.pages_per_extent(), 4u);
  EXPECT_EQ(reopened.num_extents(), 3u);
  for (uint64_t i = 0; i < 12; ++i) {
    ASSERT_OK_AND_ASSIGN(PageId p, reopened.LogicalToPhysical(i));
    EXPECT_EQ(p, mapping[i]);
  }
}

TEST(StorageManagerTest, CatalogPersistsAcrossReopen) {
  TempFile file("sm_catalog");
  const StorageOptions options = SmallOptions();
  {
    StorageManager sm;
    ASSERT_OK(sm.Create(file.path(), options));
    ASSERT_OK(sm.SetRoot("alpha", 11));
    ASSERT_OK(sm.SetRoot("beta", 22));
    ASSERT_OK(sm.RemoveRoot("alpha"));
    EXPECT_TRUE(sm.RemoveRoot("alpha").IsNotFound());
    ASSERT_OK(sm.Close());
  }
  StorageManager sm;
  ASSERT_OK(sm.Open(file.path(), options));
  EXPECT_FALSE(sm.HasRoot("alpha"));
  ASSERT_OK_AND_ASSIGN(uint64_t beta, sm.GetRoot("beta"));
  EXPECT_EQ(beta, 22u);
  EXPECT_TRUE(sm.GetRoot("gamma").status().IsNotFound());
}

TEST(StorageManagerTest, ObjectsUsableThroughFacade) {
  TempFile file("sm_objects");
  StorageManager sm;
  ASSERT_OK(sm.Create(file.path(), SmallOptions()));
  ASSERT_OK_AND_ASSIGN(ObjectId oid, sm.objects()->Create("payload"));
  ASSERT_OK(sm.SetRoot("thing", oid));
  ASSERT_OK(sm.Checkpoint());
  ASSERT_OK(sm.FlushAndEvictAll());
  ASSERT_OK_AND_ASSIGN(std::string data, sm.objects()->Read(oid));
  EXPECT_EQ(data, "payload");
  EXPECT_GT(sm.FileSizeBytes(), 0u);
}

TEST(StorageManagerTest, CatalogSurvivesManyEntries) {
  TempFile file("sm_many");
  const StorageOptions options = SmallOptions();
  {
    StorageManager sm;
    ASSERT_OK(sm.Create(file.path(), options));
    for (int i = 0; i < 500; ++i) {
      ASSERT_OK(sm.SetRoot("entry_" + std::to_string(i),
                           static_cast<uint64_t>(i * 3)));
    }
    ASSERT_OK(sm.Close());
  }
  StorageManager sm;
  ASSERT_OK(sm.Open(file.path(), options));
  EXPECT_EQ(sm.catalog().size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t v,
                         sm.GetRoot("entry_" + std::to_string(i)));
    EXPECT_EQ(v, static_cast<uint64_t>(i * 3));
  }
}

}  // namespace
}  // namespace paradise
