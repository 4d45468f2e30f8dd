// Tests for the dbverify library (schema/db_verify.h): clean committed
// databases verify with zero findings and zero file mutation, every
// corrupted fixture — bit flip, truncation, garbage — produces findings (the
// tool's non-zero exit), files of any other format version are typed
// rejections, chunks carrying ingest deltas get the same exact checks, and
// the read-only storage mode underpinning it all rejects writes and never
// commits.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "array/chunked_array.h"
#include "common/coding.h"
#include "common/options.h"
#include "ingest/ingest.h"
#include "schema/db_verify.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

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

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void BuildTinyDb(const std::string& path, gen::SyntheticDataset* data,
                 DatabaseOptions options = SmallDbOptions()) {
  const gen::GenConfig config = TinyConfig(70, 13);
  ASSERT_OK_AND_ASSIGN(*data, gen::Generate(config));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(path, *data, options));
}

TEST(DbVerifyTest, CleanDatabaseVerifiesWithoutFindings) {
  TempFile file("dbverify_clean");
  gen::SyntheticDataset data;
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  BuildTinyDb(file.path(), &data, options);

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_TRUE(report.clean())
      << (report.AllIssues().empty() ? std::string("?")
                                     : report.AllIssues().front());
  EXPECT_TRUE(report.AllIssues().empty());
  EXPECT_GT(report.page_count, 4u);
  EXPECT_GT(report.catalog_entries, 0u);
  EXPECT_EQ(report.fact_tuples, data.cell_global_indices.size());
  EXPECT_GT(report.chunks_verified, 0u);
  EXPECT_EQ(report.scrub.pages_scanned,
            report.page_count - page_header::kFirstUserPage);
  EXPECT_EQ(report.scrub.pages_corrupt, 0u);
}

TEST(DbVerifyTest, VerificationNeverModifiesTheFile) {
  TempFile file("dbverify_readonly");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  const std::string before = ReadWholeFile(file.path());
  ASSERT_FALSE(before.empty());
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(ReadWholeFile(file.path()), before)
      << "dbverify mutated the file it was checking";
}

TEST(DbVerifyTest, FlagsASingleBitFlip) {
  TempFile file("dbverify_flip");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  const StorageOptions storage = SmallDbOptions().storage;
  const uint64_t stride = storage.page_size + page_header::kPageTrailerBytes;
  // Any user page: the first one past the header and the manifest slots.
  const PageId victim = page_header::kFirstUserPage;
  FlipByteInFile(file.path(), victim * stride + 700, 0x08);

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  EXPECT_GE(report.scrub.pages_corrupt, 1u);
  bool named = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find("page " + std::to_string(victim)) != std::string::npos) {
      named = true;
    }
  }
  EXPECT_TRUE(named) << "no finding names the corrupted page";
}

TEST(DbVerifyTest, FlagsATruncatedFile) {
  TempFile file("dbverify_trunc");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  const StorageOptions storage = SmallDbOptions().storage;
  const uint64_t stride = storage.page_size + page_header::kPageTrailerBytes;
  // Keep the header and both manifest slots; chop off the data pages.
  std::filesystem::resize_file(file.path(), 4 * stride);

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.AllIssues().empty());
}

TEST(DbVerifyTest, GarbageFileCannotBeVerified) {
  TempFile file("dbverify_garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "this is not a paradise database file at all";
  }
  auto r = VerifyDatabaseFile(file.path());
  ASSERT_FALSE(r.ok());  // the tool exits 2: it cannot even probe the header
}

TEST(DbVerifyTest, MissingFileCannotBeVerified) {
  auto r = VerifyDatabaseFile("/nonexistent/path/to/nothing.db");
  ASSERT_FALSE(r.ok());
}

/// The read-only storage mode dbverify relies on: writes are rejected at the
/// disk layer and Close never commits, so the epoch cannot move.
TEST(DbVerifyTest, ReadOnlyStorageRejectsWritesAndNeverCommits) {
  TempFile file("dbverify_ro");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  uint64_t epoch_before = 0;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), SmallDbOptions().storage));
    epoch_before = disk.commit_epoch();
    disk.Abandon();
  }
  {
    StorageOptions options = SmallDbOptions().storage;
    options.read_only = true;
    StorageManager sm;
    ASSERT_OK(sm.Open(file.path(), options));
    EXPECT_FALSE(sm.disk()->WritePage(
        page_header::kFirstUserPage,
        std::string(options.page_size, 'x').data()).ok());
    EXPECT_FALSE(sm.disk()->AllocatePage().ok());
    ASSERT_OK(sm.Close());
  }
  DiskManager disk;
  ASSERT_OK(disk.Open(file.path(), SmallDbOptions().storage));
  EXPECT_EQ(disk.commit_epoch(), epoch_before)
      << "a read-only session advanced the commit epoch";
  disk.Abandon();
  // Creating a file read-only is meaningless and rejected.
  StorageOptions ro = SmallDbOptions().storage;
  ro.read_only = true;
  StorageManager sm2;
  TempFile fresh("dbverify_ro_create");
  const Status create_st = sm2.Create(fresh.path(), ro);
  EXPECT_TRUE(create_st.IsInvalidArgument()) << create_st.ToString();
}

/// Version tripwire: a file whose header carries any page-format version
/// but the one this build writes — a far-future one, or one of the retired
/// formats 1-4 (0 is how the seed format's zeroed field reads) — must be
/// REJECTED with a typed NotSupported by every opener, and dbverify turns
/// the rejection into a finding instead of misreading pages it cannot
/// decode. No opener may touch the file.
TEST(DbVerifyTest, UnknownPageFormatVersionIsATypedRejection) {
  TempFile file("dbverify_other_version");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  // The version lives as a fixed32 at a fixed header offset; the page CRC is
  // left stale, since the version check comes first. A high bit of the low
  // byte fabricates a far-future format.
  for (const uint32_t version :
       {0u, 1u, 2u, 3u, 4u, page_header::kFormatVersion ^ 0x40u}) {
    SCOPED_TRACE("format version " + std::to_string(version));
    {
      std::FILE* f = std::fopen(file.path().c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      char field[4];
      EncodeFixed32(field, version);
      ASSERT_EQ(std::fseek(f, page_header::kVersionOffset, SEEK_SET), 0);
      ASSERT_EQ(std::fwrite(field, 1, 4, f), 4u);
      ASSERT_EQ(std::fclose(f), 0);
    }
    const std::string before = ReadWholeFile(file.path());

    DiskManager disk;
    const Status disk_st = disk.Open(file.path(), SmallDbOptions().storage);
    EXPECT_TRUE(disk_st.IsNotSupported()) << disk_st.ToString();
    const Status probe_st = ProbeStorageOptions(file.path()).status();
    EXPECT_TRUE(probe_st.IsNotSupported()) << probe_st.ToString();
    StorageManager sm;
    const Status open_st = sm.Open(file.path(), SmallDbOptions().storage);
    EXPECT_TRUE(open_st.IsNotSupported()) << open_st.ToString();
    const Status db_st = Database::Open(file.path(), SmallDbOptions()).status();
    EXPECT_TRUE(db_st.IsNotSupported()) << db_st.ToString();

    ASSERT_OK_AND_ASSIGN(VerifyReport report,
                         VerifyDatabaseFile(file.path()));
    EXPECT_FALSE(report.clean());
    bool typed = false;
    for (const std::string& issue : report.AllIssues()) {
      if (issue.find("file header rejected") != std::string::npos &&
          issue.find("format_version") != std::string::npos) {
        typed = true;
      }
    }
    EXPECT_TRUE(typed) << "no finding carries the typed version rejection";
    EXPECT_EQ(ReadWholeFile(file.path()), before)
        << "a rejected open modified the file";
  }
}

/// Same tripwire one layer down: a chunk-format byte above kMaxChunkFormat
/// in the array meta — the retired bit-packed codec's 5, or one this build
/// has never heard of — must surface as a typed rejection, never be cast
/// into ChunkFormat and misdecoded. The corruption is planted through the
/// object store so every page checksum stays valid — only the format byte
/// lies.
TEST(DbVerifyTest, UnknownChunkFormatIsATypedRejection) {
  TempFile file("dbverify_chunk_format");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  for (const char format_byte : {char{5}, char{0x7f}}) {
    SCOPED_TRACE("chunk format byte " + std::to_string(format_byte));
    {
      StorageManager sm;
      ASSERT_OK(sm.Open(file.path(), SmallDbOptions().storage));
      std::string olap_root;
      for (const auto& [name, value] : sm.catalog()) {
        if (name.rfind("olap_array.", 0) == 0) olap_root = name;
      }
      ASSERT_FALSE(olap_root.empty());
      ASSERT_OK_AND_ASSIGN(uint64_t meta_oid, sm.GetRoot(olap_root));
      ASSERT_OK_AND_ASSIGN(std::string meta, sm.objects()->Read(meta_oid));
      // The ADT meta ends with fixed32 measure-count + fixed64 per-measure
      // chunked-array meta oid; the tiny cube has exactly one measure.
      ASSERT_GE(meta.size(), 12u);
      ASSERT_EQ(DecodeFixed32(meta.data() + meta.size() - 12), 1u);
      const uint64_t chunk_meta_oid =
          DecodeFixed64(meta.data() + meta.size() - 8);
      ASSERT_OK_AND_ASSIGN(std::string chunk_meta,
                           sm.objects()->Read(chunk_meta_oid));
      ASSERT_GE(chunk_meta.size(), 5u);
      ASSERT_EQ(chunk_meta.substr(0, 4), "CARR");
      chunk_meta[4] = format_byte;
      ASSERT_OK(sm.objects()->Overwrite(chunk_meta_oid, chunk_meta));
      const Status array_st =
          ChunkedArray::Open(&sm, chunk_meta_oid).status();
      EXPECT_TRUE(array_st.IsNotSupported()) << array_st.ToString();
      ASSERT_OK(sm.Close());
    }

    auto opened = Database::Open(file.path(), SmallDbOptions());
    ASSERT_FALSE(opened.ok());
    EXPECT_TRUE(opened.status().IsNotSupported())
        << opened.status().ToString();

    ASSERT_OK_AND_ASSIGN(VerifyReport report,
                         VerifyDatabaseFile(file.path()));
    EXPECT_FALSE(report.clean());
    bool typed = false;
    for (const std::string& issue : report.AllIssues()) {
      if (issue.find("chunk format") != std::string::npos) typed = true;
    }
    EXPECT_TRUE(typed)
        << "no finding carries the typed chunk-format rejection";
  }
}

/// Opens the file, walks the catalog to the OLAP array's packed data
/// object, and applies `mutate` to its byte at `index` through the object
/// store — every page checksum stays valid; only the chunk bytes lie. The
/// first non-empty chunk's blob starts at byte 0 of the data object.
void MutateOlapChunkByte(const std::string& path, size_t index,
                         char (*mutate)(char)) {
  StorageManager sm;
  ASSERT_OK(sm.Open(path, SmallDbOptions().storage));
  std::string olap_root;
  for (const auto& [name, value] : sm.catalog()) {
    if (name.rfind("olap_array.", 0) == 0) olap_root = name;
  }
  ASSERT_FALSE(olap_root.empty());
  ASSERT_OK_AND_ASSIGN(uint64_t meta_oid, sm.GetRoot(olap_root));
  ASSERT_OK_AND_ASSIGN(std::string meta, sm.objects()->Read(meta_oid));
  ASSERT_GE(meta.size(), 12u);
  ASSERT_EQ(DecodeFixed32(meta.data() + meta.size() - 12), 1u);
  const uint64_t chunk_meta_oid = DecodeFixed64(meta.data() + meta.size() - 8);
  ASSERT_OK_AND_ASSIGN(std::string chunk_meta,
                       sm.objects()->Read(chunk_meta_oid));
  ASSERT_GE(chunk_meta.size(), 17u);
  ASSERT_EQ(chunk_meta.substr(0, 4), "CARR");
  // CARR meta: data ObjectId lives at bytes [9, 17).
  const uint64_t data_oid = DecodeFixed64(chunk_meta.data() + 9);
  ASSERT_OK_AND_ASSIGN(std::string chunk_data, sm.objects()->Read(data_oid));
  ASSERT_GT(chunk_data.size(), index);
  chunk_data[index] = mutate(chunk_data[index]);
  ASSERT_OK(sm.objects()->Overwrite(data_oid, chunk_data));
  ASSERT_OK(sm.Close());
}

/// An unknown codec id on a CHUNK (as opposed to the array meta above) is
/// invisible to Database::Open, which reads only the directory — the
/// dbverify codec stage must surface it as a typed finding, not a crash and
/// not a clean report.
TEST(DbVerifyTest, UnknownChunkCodecIdIsAFinding) {
  TempFile file("dbverify_chunk_codec_id");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  // Byte 0 of the packed data object is the first chunk's tag byte.
  MutateOlapChunkByte(file.path(), 0, [](char) { return char{0x7f}; });

  ASSERT_OK(Database::Open(file.path(), SmallDbOptions()).status());

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  bool typed = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find("codec rejected") != std::string::npos &&
        issue.find("unknown chunk format tag") != std::string::npos) {
      typed = true;
    }
  }
  EXPECT_TRUE(typed) << "no finding names the unknown chunk codec id";
}

/// A diff-sequence chunk whose stored cell count disagrees with its stream
/// lengths (the shape a truncation or torn write produces) must become a
/// size-mismatch finding, never an out-of-bounds decode.
TEST(DbVerifyTest, TruncatedDiffSequenceChunkIsAFinding) {
  if (std::optional<ChunkFormat> forced =
          ForcedChunkFormatFromEnv().value_or(std::nullopt);
      forced && *forced != ChunkFormat::kDiffSequence) {
    GTEST_SKIP() << "corruption fixture requires diff-sequence encoding, but "
                    "PARADISE_FORCE_CHUNK_FORMAT selects another codec";
  }
  TempFile file("dbverify_diffseq_trunc");
  gen::SyntheticDataset data;
  DatabaseOptions options = SmallDbOptions();
  options.array.chunk_format = ChunkFormat::kDiffSequence;
  BuildTinyDb(file.path(), &data, options);
  // Bytes [5,9) of a packed chunk hold its valid count; bumping it claims
  // one more cell than the gap/value streams actually carry.
  MutateOlapChunkByte(file.path(), 5,
                      [](char c) { return static_cast<char>(c + 1); });

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  bool typed = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find("diff-sequence chunk size mismatch") != std::string::npos) {
      typed = true;
    }
  }
  EXPECT_TRUE(typed) << "no finding flags the inconsistent diff-sequence size";
}

/// The directory's valid count of a chunk that also carries an ingest delta
/// is cross-checked against its base blob like any other chunk's: the
/// chunk stage reads base and delta separately, so the count is exact.
TEST(DbVerifyTest, DirectoryCountIsCheckedOnChunksWithDeltas) {
  TempFile file("dbverify_delta_count");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  uint64_t chunk_no = 0;
  uint64_t num_chunks = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(file.path(), SmallDbOptions()));
    const uint64_t gi = data.cell_global_indices.front();
    const std::vector<int32_t> keys = data.CellKeys(gi);
    const CellCoords coords(keys.begin(), keys.end());
    const ChunkLayout& layout = db->olap()->layout();
    chunk_no = layout.CoordsToChunk(coords);
    num_chunks = layout.num_chunks();
    ASSERT_OK(db->ingest()->Write(keys, {777}));
    ASSERT_OK(db->ingest()->Commit());
    ASSERT_NE(db->olap()->array(0).overlay()->Find(chunk_no), nullptr);
    ASSERT_OK(db->storage()->Close());
  }
  {
    ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
    EXPECT_TRUE(report.clean()) << (report.AllIssues().empty()
                                        ? std::string("?")
                                        : report.AllIssues().front());
  }
  {
    // Bump the chunk's directory valid count: the trailing fixed32 of its
    // 20-byte entry at the end of the CARR meta.
    StorageManager sm;
    ASSERT_OK(sm.Open(file.path(), SmallDbOptions().storage));
    std::string olap_root;
    for (const auto& [name, value] : sm.catalog()) {
      if (name.rfind("olap_array.", 0) == 0) olap_root = name;
    }
    ASSERT_FALSE(olap_root.empty());
    ASSERT_OK_AND_ASSIGN(uint64_t meta_oid, sm.GetRoot(olap_root));
    ASSERT_OK_AND_ASSIGN(std::string meta, sm.objects()->Read(meta_oid));
    const uint64_t chunk_meta_oid =
        DecodeFixed64(meta.data() + meta.size() - 8);
    ASSERT_OK_AND_ASSIGN(std::string chunk_meta,
                         sm.objects()->Read(chunk_meta_oid));
    ASSERT_EQ(chunk_meta.substr(0, 4), "CARR");
    const size_t count_at =
        chunk_meta.size() - (num_chunks - chunk_no) * 20 + 16;
    const uint32_t listed = DecodeFixed32(chunk_meta.data() + count_at);
    ASSERT_GT(listed, 0u);
    EncodeFixed32(chunk_meta.data() + count_at, listed + 1);
    ASSERT_OK(sm.objects()->Overwrite(chunk_meta_oid, chunk_meta));
    ASSERT_OK(sm.Close());
  }
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  const std::string want = "chunk " + std::to_string(chunk_no) + " decodes ";
  bool flagged = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find(want) != std::string::npos &&
        issue.find("but the directory lists") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << "no finding flags the directory count of chunk "
                       << chunk_no;
}

/// scrub_on_open turns a damaged file into a refused Open for applications
/// that opt in, instead of a latent read error later.
TEST(DbVerifyTest, ScrubOnOpenRefusesACorruptFile) {
  TempFile file("dbverify_scrub_open");
  gen::SyntheticDataset data;
  BuildTinyDb(file.path(), &data);
  const StorageOptions storage = SmallDbOptions().storage;
  const uint64_t stride = storage.page_size + page_header::kPageTrailerBytes;
  const PageId victim = page_header::kFirstUserPage + 1;
  FlipByteInFile(file.path(), victim * stride + 900, 0x04);

  StorageOptions scrubbed = storage;
  scrubbed.scrub_on_open = true;
  StorageManager sm;
  const Status st = sm.Open(file.path(), scrubbed);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();

  // Without the scrub the open itself still succeeds (lazy detection).
  StorageManager lazy;
  ASSERT_OK(lazy.Open(file.path(), storage));
  lazy.disk()->Abandon();
}

}  // namespace
}  // namespace paradise
