// Differential fault-testing suite: runs every query engine over a database
// whose disk is wrapped in a FaultInjectingDiskManager, under deterministic
// fault schedules — fail-the-Nth-read, bit-flip a page, torn write, close
// failure — and asserts the storage stack either retries to the exact
// no-fault answer or propagates a descriptive non-OK Status. Never a crash,
// never a silently wrong result.
#include <cstring>

#include <gtest/gtest.h>

#include "query/engine.h"
#include "storage/disk_manager.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

const EngineKind kAllEngines[] = {EngineKind::kArray, EngineKind::kStarJoin,
                                  EngineKind::kBitmap, EngineKind::kLeftDeep,
                                  EngineKind::kBTreeSelect};

/// Mixed-shape query with both grouping and selections so all five engines
/// (including kBitmap and kBTreeSelect) are applicable.
query::ConsolidationQuery MixedQuery() {
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].group_by_col = 1;
  q.dims[1].selections.push_back(
      query::Selection{1,
                       {query::Literal{gen::AttrValue(1, 1, 0)},
                        query::Literal{gen::AttrValue(1, 1, 2)}}});
  q.dims[2].group_by_col = 2;
  return q;
}

/// A database plus the injector wrapped around its disk.
struct FaultedDb {
  TempFile file{"fault_db"};
  gen::SyntheticDataset data;
  FaultInjectingDiskManager* faults = nullptr;
  std::unique_ptr<Database> db;
};

/// Builds a tiny database with the fault injector installed (quiescent until
/// Arm). `storage_tweak` may adjust StorageOptions (e.g. retry limits).
void BuildFaultedDb(FaultedDb* out,
                    const std::function<void(StorageOptions*)>& storage_tweak =
                        nullptr) {
  const gen::GenConfig config = TinyConfig(80, 3);
  ASSERT_OK_AND_ASSIGN(out->data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  options.storage.read_retry_backoff_micros = 0;  // keep tests fast
  if (storage_tweak) storage_tweak(&options.storage);
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

/// BuildFaultedDb + bail out of the calling test on any fatal failure.
#define BUILD_FAULTED_DB(f, ...)            \
  do {                                      \
    BuildFaultedDb(&(f), ##__VA_ARGS__);    \
    ASSERT_NE((f).db, nullptr);             \
  } while (0)

TEST(FaultInjectionTest, TransientReadFaultsRetryToTheCorrectAnswer) {
  FaultedDb f;
  BUILD_FAULTED_DB(f);
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected = BruteForce(f.data, q);
  uint64_t total_injected = 0;
  for (uint64_t nth : {1, 2, 3, 5, 8, 13, 21}) {
    for (EngineKind kind : kAllEngines) {
      FaultInjectionOptions fi;
      fi.fail_nth_read = nth;
      f.faults->Arm(fi);
      ASSERT_OK_AND_ASSIGN(Execution exec,
                           RunQuery(f.db.get(), kind, q));
      EXPECT_TRUE(exec.result.SameAs(expected))
          << "engine " << EngineKindToString(kind) << " diverges with read "
          << nth << " failing";
      total_injected += f.faults->injected_faults();
    }
  }
  // The schedules must actually have fired, and the pool must have retried.
  EXPECT_GT(total_injected, 0u);
  EXPECT_GT(f.db->storage()->pool()->stats().read_retries, 0u);
}

TEST(FaultInjectionTest, ExhaustedRetriesPropagateCleanIOError) {
  FaultedDb f;
  BUILD_FAULTED_DB(f, [](StorageOptions* o) { o->read_retry_limit = 0; });
  const query::ConsolidationQuery q = MixedQuery();
  for (EngineKind kind : kAllEngines) {
    FaultInjectionOptions fi;
    fi.fail_nth_read = 1;
    f.faults->Arm(fi);
    auto r = RunQuery(f.db.get(), kind, q);
    ASSERT_FALSE(r.ok()) << "engine " << EngineKindToString(kind)
                         << " swallowed an unretried read fault";
    const Status st = r.status();
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.ToString().find("injected read fault"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find("engine "), std::string::npos)
        << st.ToString();
  }
  // Disarmed, every engine recovers to the exact answer.
  f.faults->Arm(FaultInjectionOptions{});
  const query::GroupedResult expected = BruteForce(f.data, q);
  for (EngineKind kind : kAllEngines) {
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(f.db.get(), kind, q));
    EXPECT_TRUE(exec.result.SameAs(expected));
  }
}

TEST(FaultInjectionTest, ProbabilisticReadFaultsAreAbsorbedByRetries) {
  FaultedDb f;
  BUILD_FAULTED_DB(f, [](StorageOptions* o) { o->read_retry_limit = 8; });
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected = BruteForce(f.data, q);
  FaultInjectionOptions fi;
  fi.seed = 99;
  fi.read_error_probability = 0.2;
  fi.max_injected_faults = 40;
  f.faults->Arm(fi);
  for (EngineKind kind : kAllEngines) {
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(f.db.get(), kind, q));
    EXPECT_TRUE(exec.result.SameAs(expected))
        << "engine " << EngineKindToString(kind)
        << " diverges under probabilistic read faults";
  }
  EXPECT_GT(f.faults->injected_faults(), 0u);
  EXPECT_GT(f.db->storage()->pool()->stats().read_retries, 0u);
}

/// The ISSUE acceptance sweep: flip one bit of page k on disk; every engine
/// must either return the identical no-fault result (page unused by that
/// plan) or a kCorruption status naming the failing page.
TEST(FaultInjectionTest, BitFlippedPageIsCorrectOrCorruptionNamingPage) {
  FaultedDb f;
  BUILD_FAULTED_DB(f);
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected = BruteForce(f.data, q);
  const uint64_t page_count = f.faults->page_count();
  ASSERT_GT(page_count, 4u);
  uint64_t detections = 0;
  for (PageId id = 1; id < page_count; ++id) {
    constexpr uint64_t kBit = 8 * 1000 + 5;
    ASSERT_OK(f.faults->FlipBitOnDisk(id, kBit));
    for (EngineKind kind : kAllEngines) {
      auto r = RunQuery(f.db.get(), kind, q);
      if (r.ok()) {
        EXPECT_TRUE(r.value().result.SameAs(expected))
            << "engine " << EngineKindToString(kind)
            << " returned a wrong result with page " << id << " corrupted";
      } else {
        const Status st = r.status();
        EXPECT_TRUE(st.IsCorruption())
            << "page " << id << ": " << st.ToString();
        EXPECT_NE(st.ToString().find("page " + std::to_string(id)),
                  std::string::npos)
            << st.ToString();
        ++detections;
      }
    }
    ASSERT_OK(f.faults->FlipBitOnDisk(id, kBit));  // restore
  }
  EXPECT_GT(detections, 0u);
  // All flips restored: everything is correct again.
  for (EngineKind kind : kAllEngines) {
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(f.db.get(), kind, q));
    EXPECT_TRUE(exec.result.SameAs(expected));
  }
}

TEST(FaultInjectionTest, ScheduledBitFlipSurfacesAsCorruption) {
  FaultedDb f;
  BUILD_FAULTED_DB(f);
  const query::ConsolidationQuery q = MixedQuery();
  FaultInjectionOptions fi;
  fi.seed = 4;
  // The tiny database caches dimensions and indexes in memory, so a cold
  // star join performs very few disk reads; trigger on the first one.
  fi.flip_bit_on_nth_read = 1;
  f.faults->Arm(fi);
  auto r = RunQuery(f.db.get(), EngineKind::kStarJoin, q);
  ASSERT_FALSE(r.ok());
  const Status st = r.status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("page "), std::string::npos) << st.ToString();
}

TEST(FaultInjectionTest, WriteFaultDuringLoadFailsCleanly) {
  TempFile file("fault_load");
  const gen::GenConfig config = TinyConfig(80, 3);
  gen::SyntheticDataset data;
  ASSERT_OK_AND_ASSIGN(data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  options.storage.wrap_disk = [](std::unique_ptr<Disk> inner) {
    FaultInjectionOptions fi;
    fi.fail_nth_write = 10;
    return std::unique_ptr<Disk>(std::make_unique<FaultInjectingDiskManager>(
        std::move(inner), fi));
  };
  auto r = BuildDatabaseFromDataset(file.path(), data, options);
  ASSERT_FALSE(r.ok());
  const Status st = r.status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("injected write fault"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("loading database"), std::string::npos)
      << st.ToString();
}

TEST(FaultInjectionTest, TornWriteIsDetectedOnNextRead) {
  TempFile file("fault_torn");
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 16;
  FaultInjectingDiskManager* faults = nullptr;
  options.wrap_disk = [&faults](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  PageId id = kInvalidPageId;
  {
    StorageManager sm;
    ASSERT_OK(sm.Create(file.path(), options));
    ASSERT_NE(faults, nullptr);
    ASSERT_OK_AND_ASSIGN(PageGuard guard, sm.pool()->NewPage());
    id = guard.page_id();
    std::memset(guard.mutable_data(), 'z', options.page_size);
    guard.Release();
    // The flush of the dirty page during Close is torn in half.
    FaultInjectionOptions fi;
    fi.torn_write_on_nth_write = 1;
    faults->Arm(fi);
    ASSERT_OK(sm.Close());
    EXPECT_EQ(faults->injected_faults(), 1u);
  }
  DiskManager disk;
  StorageOptions plain;
  plain.page_size = options.page_size;
  plain.buffer_pool_pages = 16;
  ASSERT_OK(disk.Open(file.path(), plain));
  std::vector<char> buf(options.page_size);
  const Status st = disk.ReadPage(id, buf.data());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("page " + std::to_string(id)),
            std::string::npos)
      << st.ToString();
}

/// Regression for the hardened Close() path: a failure while flushing at
/// close must propagate out of StorageManager::Close instead of being
/// ignored, and the manager must still end up closed.
TEST(FaultInjectionTest, CloseFailurePropagates) {
  TempFile file("fault_close");
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 16;
  FaultInjectingDiskManager* faults = nullptr;
  options.wrap_disk = [&faults](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  StorageManager sm;
  ASSERT_OK(sm.Create(file.path(), options));
  ASSERT_OK(sm.SetRoot("tbl", 7));
  FaultInjectionOptions fi;
  fi.fail_on_close = true;
  faults->Arm(fi);
  const Status st = sm.Close();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("injected write failure"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(sm.is_open());
}

TEST(FaultInjectionTest, FaultsRespectPageRangeFilter) {
  FaultedDb f;
  BUILD_FAULTED_DB(f);
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected = BruteForce(f.data, q);
  // Probabilistic faults restricted to an empty range never fire.
  FaultInjectionOptions fi;
  fi.read_error_probability = 1.0;
  fi.min_page = f.faults->page_count() + 100;
  f.faults->Arm(fi);
  ASSERT_OK_AND_ASSIGN(
      Execution exec,
      RunQuery(f.db.get(), EngineKind::kArray, q));
  EXPECT_TRUE(exec.result.SameAs(expected));
  EXPECT_EQ(f.faults->injected_faults(), 0u);
  EXPECT_GT(f.faults->reads_seen(), 0u);
}

}  // namespace
}  // namespace paradise
