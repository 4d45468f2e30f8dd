// Crash-consistency suite: drives the FaultInjectingDiskManager power-loss
// mode through a crash-point sweep — "the machine dies after N disk
// operations" for every N across a full database load — and requires that
// reopening the file always yields either a completely consistent database
// (every engine agrees with the brute-force reference and dbverify finds
// nothing) or a specific incomplete-load / corruption Status. Never a wrong
// answer, never a partially visible load. Also pins the commit-protocol
// ordering contracts: data is fsynced before the manifest commit, a failed
// fsync aborts the checkpoint without advancing the commit epoch, and a torn
// manifest slot falls back to the previous commit.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/ingest.h"
#include "query/engine.h"
#include "schema/db_verify.h"
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

/// Sweep-size knob: capped by PARADISE_CRASH_SWEEP_MAX_POINTS so CI can run
/// a denser sweep than the default developer loop.
uint64_t MaxSweepPoints(uint64_t fallback) {
  if (const char* env = std::getenv("PARADISE_CRASH_SWEEP_MAX_POINTS")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

/// Evenly spaced halt points over [1, total], always including 1 and total.
std::vector<uint64_t> SweepPoints(uint64_t total, uint64_t max_points) {
  const uint64_t stride = std::max<uint64_t>(1, total / max_points);
  std::vector<uint64_t> points;
  for (uint64_t n = 1; n <= total; n += stride) points.push_back(n);
  if (points.back() != total) points.push_back(total);
  return points;
}

struct CrashBuildOutcome {
  bool build_ok = false;
  bool close_ok = false;
  uint64_t total_ops = 0;  // populated only when the build succeeded
};

/// Builds the tiny database at `path` with the power-loss countdown armed
/// from the very first operation (0 = never fires). Returns whether the
/// build and the explicit close survived; a halted close abandons the file
/// in exactly its crash-time state.
CrashBuildOutcome BuildWithPowerLoss(const std::string& path,
                                     const gen::SyntheticDataset& data,
                                     uint64_t halt_after_ops) {
  std::filesystem::remove(path);
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  options.storage.read_retry_backoff_micros = 0;
  FaultInjectingDiskManager* faults = nullptr;
  FaultInjectionOptions fi;
  fi.power_loss_after_ops = halt_after_ops;
  options.storage.wrap_disk = [&faults, fi](std::unique_ptr<Disk> inner) {
    auto wrapped = std::make_unique<FaultInjectingDiskManager>(
        std::move(inner), fi);
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  CrashBuildOutcome out;
  auto r = BuildDatabaseFromDataset(path, data, options);
  out.build_ok = r.ok();
  if (r.ok()) {
    std::unique_ptr<Database> db = std::move(r).value();
    out.close_ok = db->storage()->Close().ok();
    out.total_ops = faults->ops_seen();
  }
  return out;
}

/// The tentpole acceptance sweep: cut power after N mutating disk operations
/// for every sampled N across a complete load, reopen with a plain
/// (uninstrumented) stack, and demand one of exactly two outcomes — a fully
/// consistent database every engine answers correctly from, or a clean
/// incomplete-load / corruption / I/O Status. The sweep must produce both
/// outcomes, including at least one durably-marked incomplete load.
TEST(CrashRecoveryTest, PowerLossSweepNeverServesAWrongAnswer) {
  TempFile file("crash_sweep");
  const gen::GenConfig config = TinyConfig(50, 9);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));

  // Trace run: count the mutating-op total of a crash-free build + close.
  const CrashBuildOutcome trace = BuildWithPowerLoss(file.path(), data, 0);
  ASSERT_TRUE(trace.build_ok);
  ASSERT_TRUE(trace.close_ok);
  ASSERT_GT(trace.total_ops, 20u);

  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected = BruteForce(data, q);
  uint64_t recovered = 0;
  uint64_t rejected = 0;
  uint64_t incomplete_loads = 0;
  for (const uint64_t halt : SweepPoints(trace.total_ops,
                                         MaxSweepPoints(40))) {
    const CrashBuildOutcome crash =
        BuildWithPowerLoss(file.path(), data, halt);
    auto reopened = Database::Open(file.path(), SmallDbOptions());
    if (reopened.ok()) {
      ++recovered;
      std::unique_ptr<Database> db = std::move(reopened).value();
      for (EngineKind kind : kAllEngines) {
        ASSERT_OK_AND_ASSIGN(Execution exec,
                             RunQuery(db.get(), kind, q));
        EXPECT_TRUE(exec.result.SameAs(expected))
            << "engine " << EngineKindToString(kind)
            << " diverges after a crash at op " << halt;
      }
      db.reset();
      ASSERT_OK_AND_ASSIGN(VerifyReport report,
                           VerifyDatabaseFile(file.path()));
      EXPECT_TRUE(report.clean())
          << "crash at op " << halt << ": "
          << (report.AllIssues().empty() ? std::string("?")
                                         : report.AllIssues().front());
      EXPECT_EQ(report.fact_tuples, data.cell_global_indices.size())
          << "crash at op " << halt;
    } else {
      ++rejected;
      const Status st = reopened.status();
      EXPECT_TRUE(st.IsCorruption() || st.IsIOError())
          << "crash at op " << halt
          << " produced an unrecognized failure class: " << st.ToString();
      if (st.ToString().find("incomplete load") != std::string::npos) {
        ++incomplete_loads;
      }
    }
    // A crash-free pass through the whole workload must recover perfectly.
    if (crash.build_ok && crash.close_ok) EXPECT_GT(recovered, 0u);
  }
  EXPECT_GT(recovered, 0u) << "no halt point ever recovered a full database";
  EXPECT_GT(rejected, 0u) << "no halt point ever interrupted the load";
  EXPECT_GT(incomplete_loads, 0u)
      << "the sweep never hit the durable mid-load window";
}

/// Satellite (b) pinned as a sweep: a crash at ANY point inside Checkpoint()
/// leaves the recovered catalog exactly the old committed state or exactly
/// the new one — never a catalog that names data the file does not hold.
TEST(CrashRecoveryTest, CheckpointCrashLeavesCatalogOldOrNew) {
  const std::string payload_a = "payload-A";
  const std::string payload_b(9000, 'B');
  bool saw_old = false;
  bool saw_new = false;
  bool sweep_complete = false;
  for (uint64_t halt = 1; halt <= 500 && !sweep_complete; ++halt) {
    TempFile file("crash_ckpt");
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
    ASSERT_OK_AND_ASSIGN(ObjectId a, sm.objects()->Create(payload_a));
    ASSERT_OK(sm.SetRoot("alpha", a));
    ASSERT_OK(sm.Checkpoint());  // state OLD is durable

    ASSERT_OK_AND_ASSIGN(ObjectId b, sm.objects()->Create(payload_b));
    ASSERT_OK(sm.SetRoot("beta", b));
    FaultInjectionOptions fi;
    fi.power_loss_after_ops = halt;
    faults->Arm(fi);
    const Status ckpt = sm.Checkpoint();  // state NEW, possibly interrupted
    const bool lost = faults->power_lost();
    (void)sm.Close();

    StorageManager sm2;
    StorageOptions plain;
    plain.page_size = 4096;
    plain.buffer_pool_pages = 16;
    ASSERT_OK(sm2.Open(file.path(), plain));
    ASSERT_OK_AND_ASSIGN(uint64_t a2, sm2.GetRoot("alpha"));
    ASSERT_OK_AND_ASSIGN(std::string got_a, sm2.objects()->Read(a2));
    EXPECT_EQ(got_a, payload_a) << "halt " << halt;
    if (sm2.HasRoot("beta")) {
      saw_new = true;
      ASSERT_OK_AND_ASSIGN(uint64_t b2, sm2.GetRoot("beta"));
      ASSERT_OK_AND_ASSIGN(std::string got_b, sm2.objects()->Read(b2));
      EXPECT_EQ(got_b, payload_b) << "halt " << halt;
    } else {
      saw_old = true;
      // A checkpoint that reported success must never recover without beta.
      EXPECT_FALSE(ckpt.ok()) << "halt " << halt;
    }
    ASSERT_OK(sm2.Close());
    if (ckpt.ok() && !lost) sweep_complete = true;
  }
  EXPECT_TRUE(sweep_complete) << "the checkpoint never ran crash-free";
  EXPECT_TRUE(saw_old);
  EXPECT_TRUE(saw_new);
}

/// A power cut in the middle of the fact load must durably read back as an
/// incomplete load — both from Database::Open and from dbverify — because
/// BeginFacts() checkpointed the kLoadBuilding mark.
TEST(CrashRecoveryTest, PowerLossMidFactLoadReportsIncompleteLoad) {
  TempFile file("crash_midload");
  const gen::GenConfig config = TinyConfig(60, 5);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.chunk_extents = data.config.chunk_extents;
  FaultInjectingDiskManager* faults = nullptr;
  options.storage.wrap_disk = [&faults](std::unique_ptr<Disk> inner) {
    FaultInjectionOptions fi;
    // Arm pre-image tracking without ever auto-firing; the test pulls the
    // plug itself, at a point the op countdown cannot express precisely.
    fi.power_loss_after_ops = UINT64_MAX;
    auto wrapped = std::make_unique<FaultInjectingDiskManager>(
        std::move(inner), fi);
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  StarSchema schema = data.ToStarSchema();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       Database::Create(file.path(), schema, options));
  for (size_t d = 0; d < data.config.dims.size(); ++d) {
    const gen::GenDimension& gd = data.config.dims[d];
    const Schema dim_schema = schema.dims[d].ToSchema();
    for (uint32_t key = 0; key < gd.size; ++key) {
      Tuple row(&dim_schema);
      row.SetInt32(0, static_cast<int32_t>(key));
      for (size_t level = 1; level <= gd.level_cardinalities.size();
           ++level) {
        ASSERT_OK(row.SetString(
            level, gen::AttrValue(d, level, gd.LevelCode(level, key))));
      }
      ASSERT_OK(db->AppendDimensionRow(d, row));
    }
  }
  ASSERT_OK(db->BeginFacts());
  const size_t half = data.cell_global_indices.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_OK(db->AppendFact(data.CellKeys(data.cell_global_indices[i]),
                             data.measures[i]));
  }
  faults->SimulatePowerLoss();
  db.reset();  // the dead disk abandons the handle; nothing commits

  auto reopened = Database::Open(file.path(), SmallDbOptions());
  ASSERT_FALSE(reopened.ok());
  const Status st = reopened.status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("incomplete load"), std::string::npos)
      << st.ToString();

  ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
  EXPECT_FALSE(report.clean());
  bool mentioned = false;
  for (const std::string& issue : report.AllIssues()) {
    if (issue.find("incomplete load") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned);
}

/// Satellite (b) pinned at the op level: in the recorded operation trace,
/// every manifest commit is separated from the last page write only by
/// flushes and a durability barrier — the catalog/data pages are never left
/// unsynced when the commit record lands.
TEST(CrashRecoveryTest, CheckpointSyncsDataBeforeCommittingManifest) {
  TempFile file("crash_oplog");
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
  FaultInjectionOptions fi;
  fi.record_ops = true;
  faults->Arm(fi);
  ASSERT_OK_AND_ASSIGN(ObjectId oid,
                       sm.objects()->Create(std::string(6000, 'x')));
  ASSERT_OK(sm.SetRoot("x", oid));
  ASSERT_OK(sm.Checkpoint());
  ASSERT_OK(sm.Close());

  const std::vector<std::string>& log = faults->op_log();
  int commits = 0;
  bool any_write = false;
  for (const std::string& op : log) {
    if (op == "commit") ++commits;
    if (op.rfind("write:", 0) == 0) any_write = true;
  }
  ASSERT_GE(commits, 2);  // the explicit checkpoint and the close
  EXPECT_TRUE(any_write);
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i] != "commit") continue;
    for (size_t j = i; j-- > 0;) {
      if (log[j] == "sync" || log[j] == "commit") break;
      EXPECT_EQ(log[j], "flush")
          << "mutating op '" << log[j]
          << "' between the last durability barrier and a manifest commit";
    }
  }
}

/// A failed fsync must abort the checkpoint without advancing the commit
/// epoch; once the disk recovers, the very next checkpoint commits the full
/// pending state.
TEST(CrashRecoveryTest, FsyncFailureAbortsCheckpointWithoutCommitting) {
  TempFile file("crash_fsync");
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
  ASSERT_OK_AND_ASSIGN(ObjectId a, sm.objects()->Create("payload-A"));
  ASSERT_OK(sm.SetRoot("alpha", a));
  ASSERT_OK(sm.Checkpoint());
  const uint64_t epoch_before = sm.disk()->commit_epoch();

  ASSERT_OK_AND_ASSIGN(ObjectId b, sm.objects()->Create("payload-B"));
  ASSERT_OK(sm.SetRoot("beta", b));
  FaultInjectionOptions fi;
  fi.fail_nth_sync = 1;
  faults->Arm(fi);
  const Status st = sm.Checkpoint();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_NE(st.ToString().find("fsync"), std::string::npos) << st.ToString();
  EXPECT_EQ(sm.disk()->commit_epoch(), epoch_before);

  faults->Arm(FaultInjectionOptions{});
  ASSERT_OK(sm.Checkpoint());
  EXPECT_GT(sm.disk()->commit_epoch(), epoch_before);
  ASSERT_OK(sm.Close());

  StorageManager sm2;
  StorageOptions plain;
  plain.page_size = 4096;
  plain.buffer_pool_pages = 16;
  ASSERT_OK(sm2.Open(file.path(), plain));
  ASSERT_OK_AND_ASSIGN(uint64_t b2, sm2.GetRoot("beta"));
  ASSERT_OK_AND_ASSIGN(std::string got, sm2.objects()->Read(b2));
  EXPECT_EQ(got, "payload-B");
  ASSERT_OK(sm2.Close());
}

/// Dual-slot recovery: damaging the newest manifest slot (a torn commit
/// record) makes Open fall back to the previous commit; the next clean close
/// self-heals the slot. Damaging both slots is unrecoverable and must be
/// reported as a missing commit manifest, not misread.
TEST(CrashRecoveryTest, TornManifestSlotFallsBackToPreviousCommit) {
  TempFile file("crash_torn_manifest");
  StorageOptions options;
  options.page_size = 4096;
  options.buffer_pool_pages = 16;
  {
    StorageManager sm;
    ASSERT_OK(sm.Create(file.path(), options));  // epoch 1 (empty catalog)
    ASSERT_OK_AND_ASSIGN(ObjectId oid,
                         sm.objects()->Create("fallback-payload"));
    ASSERT_OK(sm.SetRoot("k", oid));
    ASSERT_OK(sm.Checkpoint());  // epoch 2: the catalog with "k" commits
    // Dirty the disk without touching the catalog, so the final commit
    // shares its catalog blob with epoch 2 — the situation a crash during
    // CommitManifest() produces, where the superseded catalog has not yet
    // been recycled and fallback can still serve it.
    ASSERT_OK_AND_ASSIGN(PageId scratch, sm.disk()->AllocatePage());
    std::vector<char> zeros(options.page_size, 0);
    ASSERT_OK(sm.disk()->WritePage(scratch, zeros.data()));
    ASSERT_OK(sm.Close());  // epoch 3
  }
  // Probe the newest epoch without committing anything new.
  uint64_t epoch = 0;
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), options));
    epoch = disk.commit_epoch();
    disk.Abandon();
  }
  ASSERT_GE(epoch, 2u);
  const uint64_t stride = options.page_size + page_header::kPageTrailerBytes;
  const PageId newest = page_header::ManifestSlotPage(epoch);

  // Tear the newest commit record; Open must fall back one epoch and still
  // serve the committed catalog.
  FlipByteInFile(file.path(),
                 newest * stride + page_header::kManifestEpochOffset, 0x40);
  {
    StorageManager sm;
    ASSERT_OK(sm.Open(file.path(), options));
    EXPECT_LT(sm.disk()->commit_epoch(), epoch);
    ASSERT_OK_AND_ASSIGN(uint64_t oid, sm.GetRoot("k"));
    ASSERT_OK_AND_ASSIGN(std::string payload, sm.objects()->Read(oid));
    EXPECT_EQ(payload, "fallback-payload");
    ASSERT_OK(sm.Close());  // self-heals: commits a fresh manifest
  }
  {
    DiskManager disk;
    ASSERT_OK(disk.Open(file.path(), options));
    disk.Abandon();
  }

  // Both slots dead: the file must be refused with a manifest diagnosis.
  FlipByteInFile(file.path(),
                 page_header::kManifestSlotPages[0] * stride +
                     page_header::kManifestCrcOffset,
                 0x01);
  FlipByteInFile(file.path(),
                 page_header::kManifestSlotPages[1] * stride +
                     page_header::kManifestCrcOffset,
                 0x01);
  StorageManager sm;
  const Status st = sm.Open(file.path(), options);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.ToString().find("manifest"), std::string::npos)
      << st.ToString();
}

/// A fixed, deterministic upsert batch for the ingest crash sweeps: six
/// updates of occupied cells plus six inserts into empty ones.
std::map<uint64_t, int64_t> CrashUpserts(const gen::SyntheticDataset& data) {
  std::map<uint64_t, int64_t> upserts;
  for (size_t i = 0; i < 6 && i < data.cell_global_indices.size(); ++i) {
    const uint64_t gi = data.cell_global_indices[i];
    upserts[gi] = 7000 + static_cast<int64_t>(gi);
  }
  const std::set<uint64_t> occupied(data.cell_global_indices.begin(),
                                    data.cell_global_indices.end());
  uint64_t total = 1;
  for (const gen::GenDimension& d : data.config.dims) total *= d.size;
  size_t inserts = 0;
  for (uint64_t gi = 0; gi < total && inserts < 6; ++gi) {
    if (occupied.contains(gi)) continue;
    upserts[gi] = -static_cast<int64_t>(gi) - 1;
    ++inserts;
  }
  return upserts;
}

/// The dataset `base` with `upserts` applied — the post-commit epoch's
/// content, for brute-force comparison.
gen::SyntheticDataset MergedDataset(const gen::SyntheticDataset& base,
                                    const std::map<uint64_t, int64_t>& ups) {
  std::map<uint64_t, int64_t> cells;
  for (size_t i = 0; i < base.cell_global_indices.size(); ++i) {
    cells[base.cell_global_indices[i]] = base.measures[i];
  }
  for (const auto& [gi, v] : ups) cells[gi] = v;
  gen::SyntheticDataset out = base;
  out.cell_global_indices.clear();
  out.measures.clear();
  for (const auto& [gi, v] : cells) {
    out.cell_global_indices.push_back(gi);
    out.measures.push_back(v);
  }
  return out;
}

struct IngestCrashRig {
  std::unique_ptr<Database> db;
  FaultInjectingDiskManager* faults = nullptr;
};

/// Builds the tiny database cleanly at `path`, then reopens it behind an
/// un-armed fault-injecting disk so the test can pull the plug mid-ingest.
IngestCrashRig OpenIngestRig(const std::string& path,
                             const gen::SyntheticDataset& data) {
  std::filesystem::remove(path);
  {
    auto built = BuildDatabaseFromDataset(path, data, SmallDbOptions());
    EXPECT_OK(built.status());
    if (built.ok()) EXPECT_OK((*built)->storage()->Close());
  }
  IngestCrashRig rig;
  DatabaseOptions options = SmallDbOptions();
  options.storage.read_retry_backoff_micros = 0;
  options.storage.wrap_disk = [&rig](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    rig.faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  auto opened = Database::Open(path, options);
  EXPECT_OK(opened.status());
  if (opened.ok()) rig.db = std::move(opened).value();
  return rig;
}

void WriteCrashUpserts(Database* db, const gen::SyntheticDataset& data,
                       const std::map<uint64_t, int64_t>& upserts) {
  for (const auto& [gi, v] : upserts) {
    ASSERT_OK(db->ingest()->Write(data.CellKeys(gi), {v}));
  }
}

/// Ingest-commit crash sweep: cut power after N disk operations inside
/// IngestManager::Commit() for every sampled N (covering the delta spill,
/// the state rewrite, and the manifest publication). Reopening must yield
/// exactly the pre-commit epoch or exactly the post-commit epoch — never a
/// half-visible generation — and dbverify must stay clean either way.
TEST(CrashRecoveryTest, IngestCommitCrashRecoversOldOrNewEpoch) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(50, 21)));
  const std::map<uint64_t, int64_t> upserts = CrashUpserts(data);
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected_old = BruteForce(data, q);
  const query::GroupedResult expected_new =
      BruteForce(MergedDataset(data, upserts), q);

  // Trace run: how many disk operations a crash-free commit performs.
  uint64_t commit_ops = 0;
  {
    TempFile file("ingest_commit_trace");
    IngestCrashRig rig = OpenIngestRig(file.path(), data);
    ASSERT_NE(rig.db, nullptr);
    WriteCrashUpserts(rig.db.get(), data, upserts);
    const uint64_t before = rig.faults->ops_seen();
    ASSERT_OK(rig.db->ingest()->Commit());
    commit_ops = rig.faults->ops_seen() - before;
  }
  ASSERT_GT(commit_ops, 0u);

  bool saw_old = false;
  bool saw_new = false;
  for (const uint64_t halt : SweepPoints(commit_ops, MaxSweepPoints(25))) {
    TempFile file("ingest_commit_crash");
    IngestCrashRig rig = OpenIngestRig(file.path(), data);
    ASSERT_NE(rig.db, nullptr);
    WriteCrashUpserts(rig.db.get(), data, upserts);
    FaultInjectionOptions fi;
    fi.power_loss_after_ops = halt;
    rig.faults->Arm(fi);
    const Status commit = rig.db->ingest()->Commit();
    rig.db.reset();  // the dead disk abandons the handle

    // An interrupted ingest commit must never brick the file: the previous
    // epoch's manifest is untouched until the new one is durable.
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(file.path(), SmallDbOptions()));
    if (db->ingested()) {
      saw_new = true;
      EXPECT_EQ(db->ingest()->stats().live_generations, 1u)
          << "halt " << halt;
      ASSERT_OK_AND_ASSIGN(Execution exec,
                           RunQuery(db.get(), EngineKind::kArray, q));
      EXPECT_TRUE(exec.result.SameAs(expected_new)) << "halt " << halt;
    } else {
      saw_old = true;
      // A commit that reported success must never recover without its data.
      EXPECT_FALSE(commit.ok()) << "halt " << halt;
      ASSERT_OK_AND_ASSIGN(Execution exec,
                           RunQuery(db.get(), EngineKind::kArray, q));
      EXPECT_TRUE(exec.result.SameAs(expected_old)) << "halt " << halt;
    }
    db.reset();
    ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
    EXPECT_TRUE(report.clean())
        << "halt " << halt << ": "
        << (report.AllIssues().empty() ? std::string("?")
                                       : report.AllIssues().front());
  }
  EXPECT_TRUE(saw_old) << "no halt point ever interrupted the commit";
  EXPECT_TRUE(saw_new) << "no halt point ever landed the commit";
}

/// Compaction crash sweep: compaction rewrites the array copy-on-write and
/// only then republishes, so a crash at ANY point (mid-merge, after the
/// manifest slot write, before the old objects are recycled) must recover a
/// database whose content is STILL the merged data — served from the delta
/// generations if the new epoch never landed, from the compacted base if it
/// did — with dbverify clean in both cases.
TEST(CrashRecoveryTest, IngestCompactionCrashAlwaysRecoversMergedContent) {
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data,
                       gen::Generate(TinyConfig(50, 22)));
  const std::map<uint64_t, int64_t> upserts = CrashUpserts(data);
  const query::ConsolidationQuery q = MixedQuery();
  const query::GroupedResult expected =
      BruteForce(MergedDataset(data, upserts), q);

  // Trace run: disk operations of a crash-free compaction.
  uint64_t compact_ops = 0;
  {
    TempFile file("ingest_compact_trace");
    IngestCrashRig rig = OpenIngestRig(file.path(), data);
    ASSERT_NE(rig.db, nullptr);
    WriteCrashUpserts(rig.db.get(), data, upserts);
    ASSERT_OK(rig.db->ingest()->Commit());
    const uint64_t before = rig.faults->ops_seen();
    ASSERT_OK(rig.db->ingest()->Compact());
    compact_ops = rig.faults->ops_seen() - before;
  }
  ASSERT_GT(compact_ops, 0u);

  bool saw_pending = false;
  bool saw_compacted = false;
  for (const uint64_t halt : SweepPoints(compact_ops, MaxSweepPoints(25))) {
    TempFile file("ingest_compact_crash");
    IngestCrashRig rig = OpenIngestRig(file.path(), data);
    ASSERT_NE(rig.db, nullptr);
    WriteCrashUpserts(rig.db.get(), data, upserts);
    ASSERT_OK(rig.db->ingest()->Commit());
    FaultInjectionOptions fi;
    fi.power_loss_after_ops = halt;
    rig.faults->Arm(fi);
    (void)rig.db->ingest()->Compact();
    rig.db.reset();

    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         Database::Open(file.path(), SmallDbOptions()));
    EXPECT_TRUE(db->ingested()) << "halt " << halt;
    if (db->ingest()->stats().live_generations > 0) {
      saw_pending = true;
    } else {
      saw_compacted = true;
    }
    ASSERT_OK_AND_ASSIGN(Execution exec,
                         RunQuery(db.get(), EngineKind::kArray, q));
    EXPECT_TRUE(exec.result.SameAs(expected))
        << "halt " << halt << " lost ingested content";
    db.reset();
    ASSERT_OK_AND_ASSIGN(VerifyReport report, VerifyDatabaseFile(file.path()));
    EXPECT_TRUE(report.clean())
        << "halt " << halt << ": "
        << (report.AllIssues().empty() ? std::string("?")
                                       : report.AllIssues().front());
  }
  EXPECT_TRUE(saw_pending) << "no halt point ever interrupted the compaction";
  EXPECT_TRUE(saw_compacted) << "no halt point ever landed the compaction";
}

}  // namespace
}  // namespace paradise
