// Allocator-level crash consistency: extent directories recovered after a
// power cut always describe whole, in-bounds extents from the last committed
// checkpoint; the disk free list rejects double frees, reserved-page frees
// and corrupted links; and a page that is simultaneously on the free list
// and inside a committed fact extent is caught by the dbverify cross-check.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "schema/db_verify.h"
#include "storage/disk_manager.h"
#include "storage/extent_allocator.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

StorageOptions ExtOptions() {
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 64;
  options.pages_per_extent = 4;
  options.read_retry_backoff_micros = 0;
  return options;
}

/// Grows an extent directory in checkpointed rounds on a disk whose
/// power-loss countdown is armed at `halt` (0 = never). Reports how far the
/// workload got and what the last *successful* checkpoint covered.
struct ExtentWorkloadOutcome {
  bool committed_root = false;
  uint64_t committed_capacity = 0;
  bool power_lost = false;
  uint64_t total_ops = 0;
};

constexpr uint64_t kGrowthRounds = 6;

ExtentWorkloadOutcome RunExtentWorkload(const std::string& path,
                                        uint64_t halt) {
  StorageOptions options = ExtOptions();
  FaultInjectingDiskManager* faults = nullptr;
  FaultInjectionOptions fi;
  fi.power_loss_after_ops = halt;
  options.wrap_disk = [&faults, fi](std::unique_ptr<Disk> inner) {
    auto wrapped = std::make_unique<FaultInjectingDiskManager>(
        std::move(inner), fi);
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  ExtentWorkloadOutcome out;
  StorageManager sm;
  if (!sm.Create(path, options).ok()) return out;
  ExtentAllocator ext(sm.pool(), sm.disk());
  [&] {
    auto root_or = ext.Create(options.pages_per_extent);
    if (!root_or.ok()) return;
    if (!sm.SetRoot("extents", root_or.value()).ok()) return;
    if (!sm.Checkpoint().ok()) return;
    out.committed_root = true;
    for (uint64_t k = 1; k <= kGrowthRounds; ++k) {
      const uint64_t target = k * options.pages_per_extent;
      if (!ext.EnsureCapacity(target).ok()) return;
      if (!sm.Checkpoint().ok()) return;
      out.committed_capacity = target;
    }
  }();
  out.power_lost = faults->power_lost();
  (void)sm.Close();
  out.total_ops = faults->ops_seen();
  return out;
}

/// Crash-point sweep over a grow-and-checkpoint allocator workload: at every
/// sampled halt point the reopened directory must be exactly a committed
/// prefix — either the last checkpoint's capacity or the next round's fully
/// committed capacity (when the crash landed after Commit but before the
/// stale-catalog recycling) — with every extent whole and inside the file.
TEST(ExtentRecoveryTest, AllocateCrashReopenSweep) {
  // Trace run to size the sweep.
  uint64_t total_ops = 0;
  {
    TempFile file("extent_trace");
    const ExtentWorkloadOutcome trace = RunExtentWorkload(file.path(), 0);
    ASSERT_TRUE(trace.committed_root);
    ASSERT_EQ(trace.committed_capacity, kGrowthRounds * 4);
    ASSERT_FALSE(trace.power_lost);
    total_ops = trace.total_ops;
  }
  ASSERT_GT(total_ops, 10u);

  uint64_t max_points = 60;
  if (const char* env = std::getenv("PARADISE_CRASH_SWEEP_MAX_POINTS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) max_points = parsed;
  }
  const uint64_t stride = std::max<uint64_t>(1, total_ops / max_points);

  bool saw_partial = false;
  bool saw_full = false;
  for (uint64_t halt = 1; halt <= total_ops; halt += stride) {
    TempFile file("extent_crash");
    const ExtentWorkloadOutcome run = RunExtentWorkload(file.path(), halt);

    StorageManager sm;
    ASSERT_OK(sm.Open(file.path(), ExtOptions()));
    const uint64_t page_count = sm.disk()->page_count();
    const PageId first_user = page_header::kFirstUserPage;
    if (sm.HasRoot("extents")) {
      ASSERT_OK_AND_ASSIGN(uint64_t root, sm.GetRoot("extents"));
      ExtentAllocator ext(sm.pool(), sm.disk());
      ASSERT_OK(ext.Open(static_cast<PageId>(root)));
      EXPECT_EQ(ext.pages_per_extent(), 4u) << "halt " << halt;
      const uint64_t capacity = ext.logical_page_capacity();
      // Exactly old-or-new: the last checkpoint the workload saw succeed,
      // or one more round whose Commit landed before the crash.
      EXPECT_TRUE(capacity == run.committed_capacity ||
                  capacity == run.committed_capacity + 4)
          << "halt " << halt << ": recovered capacity " << capacity
          << " vs committed " << run.committed_capacity;
      for (const PageId first : ext.extent_firsts()) {
        EXPECT_GE(first, first_user) << "halt " << halt;
        EXPECT_LE(first + ext.pages_per_extent(), page_count)
            << "halt " << halt << ": extent at page " << first
            << " sticks out of a " << page_count << "-page file";
      }
      for (uint64_t logical = 0; logical < capacity; ++logical) {
        ASSERT_OK_AND_ASSIGN(PageId physical,
                             ext.LogicalToPhysical(logical));
        EXPECT_LT(physical, page_count) << "halt " << halt;
      }
      if (capacity < kGrowthRounds * 4) saw_partial = true;
      if (capacity == kGrowthRounds * 4) saw_full = true;
    } else {
      // Crash before the directory root ever committed.
      EXPECT_FALSE(run.committed_root) << "halt " << halt;
      saw_partial = true;
    }
    ASSERT_OK(sm.Close());
  }
  EXPECT_TRUE(saw_partial) << "the sweep never interrupted the workload";
  EXPECT_TRUE(saw_full) << "the sweep never recovered the full directory";
}

TEST(ExtentRecoveryTest, DoubleFreeIsReportedAsCorruption) {
  TempFile file("extent_doublefree");
  const StorageOptions options = ExtOptions();
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  ASSERT_OK_AND_ASSIGN(PageId a, disk.AllocatePage());
  std::vector<char> page(options.page_size, 'a');
  ASSERT_OK(disk.WritePage(a, page.data()));
  ASSERT_OK(disk.FreePage(a));
  const Status st = disk.FreePage(a);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("double free"), std::string::npos)
      << st.ToString();
  // Reallocating the page clears the tombstone: it can be freed again.
  ASSERT_OK_AND_ASSIGN(PageId b, disk.AllocatePage());
  EXPECT_EQ(b, a);
  ASSERT_OK(disk.FreePage(b));
  ASSERT_OK(disk.Close());
}

TEST(ExtentRecoveryTest, ReservedPagesCannotBeFreed) {
  TempFile file("extent_reserved");
  const StorageOptions options = ExtOptions();
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  const PageId first_user = page_header::kFirstUserPage;
  for (PageId id = 0; id < first_user; ++id) {
    const Status st = disk.FreePage(id);
    EXPECT_TRUE(st.IsInvalidArgument()) << "page " << id << ": "
                                        << st.ToString();
  }
  ASSERT_OK(disk.Close());
}

/// A free page whose next-link was overwritten (with a valid checksum, so
/// only link validation can notice) must fail allocation with a free-list
/// diagnosis instead of handing out an insane page id.
TEST(ExtentRecoveryTest, CorruptedFreeListLinkIsDetectedOnAllocate) {
  TempFile file("extent_freelist");
  const StorageOptions options = ExtOptions();
  DiskManager disk;
  ASSERT_OK(disk.Create(file.path(), options));
  ASSERT_OK_AND_ASSIGN(PageId a, disk.AllocatePage());
  ASSERT_OK_AND_ASSIGN(PageId b, disk.AllocatePage());
  std::vector<char> page(options.page_size, 'z');
  ASSERT_OK(disk.WritePage(a, page.data()));
  ASSERT_OK(disk.WritePage(b, page.data()));
  ASSERT_OK(disk.FreePage(b));
  ASSERT_OK(disk.FreePage(a));  // free list: a -> b
  // Clobber a's link through the normal write path: checksum stays valid.
  std::vector<char> bogus(options.page_size, 0);
  EncodeFixed64(bogus.data(), 0x7fffffff);
  ASSERT_OK(disk.WritePage(a, bogus.data()));
  auto r = disk.AllocatePage();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("free list"), std::string::npos)
      << r.status().ToString();
}

/// The allocator-vs-catalog cross-check dbverify runs: a page that sits on
/// the free list while a committed fact extent still owns it is an
/// inconsistency the page-level checksums cannot see.
TEST(ExtentRecoveryTest, PageOnFreeListInsideExtentIsFlaggedByVerify) {
  TempFile file("extent_overlap");
  const gen::GenConfig config = TinyConfig(40, 3);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  PageId victim = kInvalidPageId;
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    const std::vector<PageId>& firsts =
        db->fact()->extent_allocator().extent_firsts();
    ASSERT_FALSE(firsts.empty());
    victim = firsts.front();
  }
  ASSERT_NE(victim, kInvalidPageId);
  {
    ASSERT_OK_AND_ASSIGN(VerifyReport before, VerifyDatabaseFile(file.path()));
    ASSERT_TRUE(before.clean());
  }
  // Free the extent page behind the catalog's back and commit.
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), SmallDbOptions().storage));
    ASSERT_OK(disk.FreePage(victim));
    ASSERT_OK(disk.Close());
  }
  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  bool mentioned = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find("free list") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned) << "no issue mentions the free-list overlap";
}

}  // namespace
}  // namespace paradise
