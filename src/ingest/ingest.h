// IngestManager: the incremental write path of a loaded database
// (DESIGN.md choice 15). Writes buffer in memory keyed by (measure, chunk,
// offsetInChunk); Commit() spills the buffered generation copy-on-write,
// folds it into overlays_ (one DeltaOverlay per measure, the only in-memory
// record of committed, uncompacted writes), publishes a new commit epoch
// through the dual-slot manifest, and swaps the folded overlays into the
// OLAP array's measure arrays so the newest epoch serves the merged data
// immediately — before any compaction runs. Compact() merges overlays_ into
// a copy-on-write rewrite of the packed chunk arrays (per-chunk merge work
// fans out on the IoPool, cancellation-aware), republishes the ADT meta,
// drops the generation roots, and bumps the epoch again.
//
// Concurrency: one mutex serializes Write/Commit/Compact/ReclaimRetired
// against each other. Readers are never blocked by any of them — queries
// pin an (epoch, array-version) snapshot via Database::PinArray() and run
// entirely against immutable state; only the brief checkpoint+swap inside
// Database::PublishIngest() excludes new pins.
//
// Crash safety: every durable mutation is copy-on-write (new objects, new
// catalog roots) published solely by the Checkpoint() manifest commit, so a
// crash at ANY point recovers to the previous epoch. Objects superseded by
// a commit are freed only AFTER the checkpoint that unreferences them
// (crash mid-free leaks pages, which dbverify tolerates — only double
// claims are findings). Objects a pinned in-process reader may still read
// (the pre-compaction array versions) go to a graveyard and are freed once
// their version refcount shows no reader can reach them.
//
// Scope: after load, Write + Commit is the only way a cube's cells change
// (it is the §3.5 ADT Write function), so ingested() tells completely
// whether the array has moved past the fact file. Ingest targets the OLAP
// array only and requires existing dimension keys. The relational fact file
// is NOT maintained, so once any ingest commit lands the relational engines
// are permanently gated off with a typed error (see query/engine.cc) — the
// array is the paper's protagonist.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "array/chunked_array.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "ingest/delta_store.h"
#include "schema/database.h"

namespace paradise {

class Counter;

class IngestManager {
 public:
  /// `db` must outlive the manager (the Database owns it).
  explicit IngestManager(Database* db);

  /// Buffers one cell write per measure, addressed by one existing key per
  /// dimension. Unknown keys are rejected (ingest never grows dimensions).
  Status Write(const std::vector<int32_t>& keys,
               const std::vector<int64_t>& measures);

  /// Makes every buffered write durable and visible: spills the pending
  /// generation, folds it into overlays_, advances the commit epoch, and
  /// publishes the folded overlays. No-op when nothing is buffered.
  Status Commit();

  /// Merges overlays_ into the packed arrays copy-on-write and retires the
  /// generations. Readers keep their pinned versions untouched.
  /// `cancel` (optional) is polled per chunk; a fired token aborts with the
  /// token's typed status, leaving the generations intact and servable.
  Status Compact(const CancellationToken* cancel = nullptr);

  /// Open-time recovery: loads the persisted ingest state, folds the
  /// committed generations into overlays_ and publishes them. Called by
  /// Database::Open.
  Status Recover();

  /// Frees retired pre-compaction array objects whose versions no reader
  /// can reach anymore. Runs opportunistically after Commit/Compact; call
  /// directly to reclaim eagerly (e.g. before measuring file size).
  Status ReclaimRetired();

  /// True once any ingest commit ever landed — the relational fact file is
  /// stale from then on and the relational engines are gated off. Lock-free:
  /// a flag Commit() raises before it publishes the new epoch (and Recover()
  /// sets), so planning and the relational gate never wait out a commit's
  /// checkpoint and fsync.
  bool ingested() const;

  struct Stats {
    uint64_t pending_cells = 0;        // buffered, not yet committed
    uint64_t applied_cells = 0;        // lifetime committed cells (persisted)
    uint64_t live_generations = 0;     // committed, not yet compacted
    uint64_t overlay_cells = 0;        // distinct cells in the overlays
    uint64_t commits = 0;              // this process
    uint64_t compactions = 0;          // this process
    uint64_t compactions_cancelled = 0;
    uint64_t retired_pending = 0;      // graveyard entries awaiting reclaim
  };
  Stats stats() const;

  uint64_t pending_cells() const;
  uint64_t applied_cells() const;

 private:
  struct LiveGeneration {
    uint64_t seq = 0;
    ObjectId oid = kInvalidObjectId;
  };
  /// One compaction's superseded storage, freed once unreferenced.
  struct Retired {
    std::vector<ChunkedArray::Compaction> measures;
  };

  std::string SerializeState(uint64_t applied, uint64_t next_seq,
                             const std::vector<LiveGeneration>& live) const;
  Status ReclaimRetiredLocked();
  void FreeBestEffort(ObjectId oid);

  Database* db_;
  size_t num_measures_;

  mutable std::mutex mu_;  // serializes writers; readers never take it
  DeltaGeneration pending_;
  std::vector<LiveGeneration> live_;
  // Per measure, live_ folded in commit order (null = no deltas). Ahead of
  // the arrays' overlays after a failed publish, until the next commit.
  std::vector<std::shared_ptr<const DeltaOverlay>> overlays_;
  uint64_t next_seq_ = 1;
  uint64_t applied_cells_ = 0;
  std::atomic<bool> ingested_{false};  // applied_cells_ > 0, read lock-free
  ObjectId state_oid_ = kInvalidObjectId;
  std::vector<Retired> graveyard_;

  uint64_t commits_ = 0;
  uint64_t compactions_ = 0;
  uint64_t compactions_cancelled_ = 0;

  // Null when StorageOptions::metrics_enabled is off.
  Counter* metric_writes_ = nullptr;
  Counter* metric_commits_ = nullptr;
  Counter* metric_committed_cells_ = nullptr;
  Counter* metric_compactions_ = nullptr;
  Counter* metric_compactions_cancelled_ = nullptr;
  Counter* metric_compacted_chunks_ = nullptr;
  Counter* metric_retired_freed_ = nullptr;
};

/// Catalog root names (shared with db_verify and the tools).
std::string IngestStateRootName();
std::string IngestGenerationRootName(uint64_t seq);
bool IsIngestGenerationRoot(const std::string& root_name, uint64_t* seq);

/// Parses a persisted "ingest.state" object. Typed errors: Corruption for a
/// malformed blob, NotSupported for a version newer than this build writes.
/// Shared with dbverify so it can cross-check the state against the catalog
/// without instantiating an IngestManager.
Status ParseIngestState(const std::string& blob, uint64_t* applied,
                        uint64_t* next_seq,
                        std::vector<std::pair<uint64_t, ObjectId>>* gens);

}  // namespace paradise
