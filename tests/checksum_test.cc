// Tests for the per-page CRC32C checksum layer: round-tripping checksummed
// pages, rejecting other format versions, and detecting single-bit
// corruption anywhere in a built database file — chunk blobs, B-tree nodes,
// bitmap pages and the catalog alike.
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

StorageOptions SmallOptions() {
  StorageOptions o;
  o.page_size = 4096;
  o.buffer_pool_pages = 16;
  o.pages_per_extent = 4;
  return o;
}

/// XORs one byte of the file at `offset` with `mask`.
void FlipByteInFile(const std::string& path, uint64_t offset, char mask) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  char byte = 0;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fread(&byte, 1, 1, f), 1u);
  byte = static_cast<char>(byte ^ mask);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(ChecksumTest, RoundTripChecksummedPages) {
  TempFile file("crc_roundtrip");
  const StorageOptions options = SmallOptions();
  std::vector<PageId> ids;
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
    for (int i = 0; i < 5; ++i) {
      ASSERT_OK_AND_ASSIGN(PageId id, disk.AllocatePage());
      std::vector<char> page(options.page_size,
                             static_cast<char>('a' + i));
      ASSERT_OK(disk.WritePage(id, page.data()));
      ids.push_back(id);
    }
    ASSERT_OK(disk.Close());
  }
  DiskManager disk;
  ASSERT_OK(disk.Open(file.path(), options));
  for (size_t i = 0; i < ids.size(); ++i) {
    std::vector<char> readback(options.page_size);
    ASSERT_OK(disk.ReadPage(ids[i], readback.data()));
    EXPECT_EQ(readback,
              std::vector<char>(options.page_size,
                                static_cast<char>('a' + i)));
  }
}

TEST(ChecksumTest, DetectsSingleBitFlipInDataPage) {
  TempFile file("crc_flip");
  const StorageOptions options = SmallOptions();
  PageId id = kInvalidPageId;
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
    ASSERT_OK_AND_ASSIGN(id, disk.AllocatePage());
    std::vector<char> page(options.page_size, 'x');
    ASSERT_OK(disk.WritePage(id, page.data()));
    ASSERT_OK(disk.Close());
  }
  const uint64_t stride = options.page_size + page_header::kPageTrailerBytes;
  FlipByteInFile(file.path(), id * stride + 123, 0x01);

  DiskManager disk;
  ASSERT_OK(disk.Open(file.path(), options));
  std::vector<char> readback(options.page_size);
  const Status st = disk.ReadPage(id, readback.data());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("page " + std::to_string(id)),
            std::string::npos)
      << st.ToString();
}

TEST(ChecksumTest, DetectsCorruptHeaderAtOpen) {
  TempFile file("crc_header");
  const StorageOptions options = SmallOptions();
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
    ASSERT_OK(disk.Close());
  }
  // Flip a byte past the structured header fields; only the page checksum
  // can notice it.
  FlipByteInFile(file.path(), page_header::kHeaderBytes + 64, 0x10);
  DiskManager disk;
  const Status st = disk.Open(file.path(), options);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("header"), std::string::npos) << st.ToString();
}

TEST(ChecksumTest, RejectsFutureFormatVersions) {
  TempFile file("crc_future");
  const StorageOptions options = SmallOptions();
  {
    DiskManager disk;
    ASSERT_OK(disk.Create(file.path(), options));
    ASSERT_OK(disk.Close());
  }
  // Bump the stored version field past every supported format and refresh
  // nothing else; Open must refuse before it misinterprets the layout.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    char version[4] = {page_header::kFormatVersion + 1, 0, 0, 0};
    ASSERT_EQ(std::fseek(f, page_header::kVersionOffset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(version, 1, 4, f), 4u);
    ASSERT_EQ(std::fclose(f), 0);
  }
  DiskManager disk;
  const Status st = disk.Open(file.path(), options);
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
}

TEST(ChecksumTest, FileSizeAccountsForTrailers) {
  TempFile file("crc_size");
  StorageManager sm;
  ASSERT_OK(sm.Create(file.path(), SmallOptions()));
  ASSERT_OK_AND_ASSIGN(PageGuard guard, sm.pool()->NewPage());
  guard.mutable_data()[0] = 1;
  guard.Release();
  const uint64_t pages = sm.disk()->page_count();
  const uint64_t expected_bytes =
      pages * (sm.disk()->page_size() + page_header::kPageTrailerBytes);
  EXPECT_EQ(sm.FileSizeBytes(), expected_bytes);
  ASSERT_OK(sm.Close());
  EXPECT_EQ(std::filesystem::file_size(file.path()), expected_bytes);
}

/// Sweeps a single-bit flip across every page of a fully built database
/// file — covering array chunk blobs, B-tree nodes, bitmap pages, heap
/// pages and the catalog object — and requires the checksum layer to report
/// each one as corruption naming the page.
TEST(ChecksumTest, DetectsBitFlipOnEveryPageOfBuiltDatabase) {
  TempFile file("crc_sweep");
  const gen::GenConfig config = TinyConfig(60, 5);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         BuildDatabaseFromDataset(file.path(), data, options));
  }
  const StorageOptions storage = options.storage;
  const uint64_t stride =
      storage.page_size + page_header::kPageTrailerBytes;
  uint64_t page_count = 0;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), storage));
    page_count = disk.page_count();
  }
  ASSERT_GT(page_count, 4u);
  std::vector<char> buf(storage.page_size);
  for (PageId id = 1; id < page_count; ++id) {
    const uint64_t offset = id * stride + 1000;
    FlipByteInFile(file.path(), offset, 0x20);
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), storage));
    const Status st = disk.ReadPage(id, buf.data());
    EXPECT_TRUE(st.IsCorruption())
        << "page " << id << ": " << st.ToString();
    EXPECT_NE(st.ToString().find("page " + std::to_string(id)),
              std::string::npos)
        << st.ToString();
    ASSERT_OK(disk.Close());
    FlipByteInFile(file.path(), offset, 0x20);  // restore
  }
  // With every flip restored the database must be fully intact again.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Open(file.path(), options));
  const query::ConsolidationQuery q = gen::Query1(3);
  ASSERT_OK_AND_ASSIGN(Execution exec,
                       RunQuery(db.get(), EngineKind::kArray, q));
  EXPECT_TRUE(exec.result.SameAs(BruteForce(data, q)));
}

}  // namespace
}  // namespace paradise
