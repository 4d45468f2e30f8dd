// Compaction: merges the fold of every committed delta generation into a
// copy-on-write rewrite of the OLAP array's packed chunk objects and retires
// the generations. The write amplification happens entirely off the read path:
// per-chunk merges fan out on the storage IoPool, the current array
// versions stay untouched until one pointer swap, and pinned readers keep
// the pre-compaction objects alive through the graveyard until their
// version refcounts drain.
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "ingest/ingest.h"
#include "storage/io_pool.h"

namespace paradise {

Status IngestManager::Compact(const CancellationToken* cancel) {
  std::lock_guard<std::mutex> lk(mu_);
  if (live_.empty()) return Status::OK();
  StorageManager* storage = db_->storage();
  OlapArray* olap = db_->olap();

  // 1. Prepare one copy-on-write compaction per overlay-bearing measure.
  //    This is the heavy phase (read base + merge + write new objects) and
  //    runs outside the pin lock — readers are completely unaffected.
  //    Cancellation or failure frees the new objects (never referenced by
  //    any catalog root yet) and leaves the generations fully servable.
  std::vector<std::optional<ChunkedArray::Compaction>> comps(num_measures_);
  uint64_t merged_chunks = 0;
  auto abandon = [&]() {
    for (const auto& c : comps) {
      if (!c.has_value()) continue;
      FreeBestEffort(c->new_data_oid);
      FreeBestEffort(c->new_meta_oid);
    }
  };
  for (size_t m = 0; m < num_measures_; ++m) {
    if (overlays_[m] == nullptr || overlays_[m]->empty()) continue;
    Result<ChunkedArray::Compaction> comp_or =
        olap->mutable_array(m)->PrepareCompaction(*overlays_[m],
                                                  storage->io_pool(), cancel);
    if (!comp_or.ok()) {
      abandon();
      if (comp_or.status().IsCancelled() ||
          comp_or.status().IsDeadlineExceeded()) {
        ++compactions_cancelled_;
        if (metric_compactions_cancelled_ != nullptr) {
          metric_compactions_cancelled_->Increment();
        }
      }
      return comp_or.status();
    }
    merged_chunks += comp_or.value().merged_chunks;
    comps[m] = std::move(comp_or).value();
  }

  // 2. Swap the compacted versions in. The merged content is cell-for-cell
  //    identical to base+overlay, so readers that pin between here and the
  //    checkpoint still compute exactly the current epoch's results.
  for (size_t m = 0; m < num_measures_; ++m) {
    if (comps[m].has_value()) {
      olap->mutable_array(m)->PublishCompaction(*comps[m]);
    }
  }

  // 3. Catalog turnover, all copy-on-write: republish the ADT meta (it
  //    embeds the arrays' meta oids), drop the generation roots, and write
  //    the emptied state object. Recovery sees either all of it (after the
  //    checkpoint) or none of it (before).
  PARADISE_ASSIGN_OR_RETURN(ObjectId old_olap_meta, olap->PublishMeta());
  for (const LiveGeneration& g : live_) {
    PARADISE_RETURN_IF_ERROR(
        storage->RemoveRoot(IngestGenerationRootName(g.seq)));
  }
  PARADISE_ASSIGN_OR_RETURN(
      ObjectId new_state,
      storage->objects()->Create(
          SerializeState(applied_cells_, next_seq_, {})));
  PARADISE_RETURN_IF_ERROR(storage->SetRoot(IngestStateRootName(), new_state));

  // 4. Commit point. The arrays already serve the compacted (equivalent)
  //    content; the checkpoint makes the turnover durable and bumps the
  //    epoch under the pin lock.
  PARADISE_RETURN_IF_ERROR(db_->PublishIngest([] { return Status::OK(); }));

  // 5. Post-commit reclamation. Generation and state objects have no
  //    readers (overlays hold their cells in memory); the old array objects
  //    may still back pinned query snapshots, so they wait in the graveyard
  //    until their version refcounts show no reader can reach them.
  const ObjectId old_state = state_oid_;
  state_oid_ = new_state;
  for (const LiveGeneration& g : live_) FreeBestEffort(g.oid);
  live_.clear();
  overlays_.assign(num_measures_, nullptr);
  if (old_state != kInvalidObjectId) FreeBestEffort(old_state);
  FreeBestEffort(old_olap_meta);
  Retired retired;
  for (auto& c : comps) {
    if (c.has_value()) retired.measures.push_back(std::move(*c));
  }
  if (!retired.measures.empty()) graveyard_.push_back(std::move(retired));
  ++compactions_;
  if (metric_compactions_ != nullptr) metric_compactions_->Increment();
  if (metric_compacted_chunks_ != nullptr) {
    metric_compacted_chunks_->Increment(merged_chunks);
  }
  return ReclaimRetiredLocked();
}

Status IngestManager::ReclaimRetired() {
  std::lock_guard<std::mutex> lk(mu_);
  return ReclaimRetiredLocked();
}

Status IngestManager::ReclaimRetiredLocked() {
  std::vector<Retired> still_pinned;
  for (Retired& r : graveyard_) {
    bool retirable = true;
    for (const ChunkedArray::Compaction& c : r.measures) {
      if (!ChunkedArray::CompactionRetirable(c)) {
        retirable = false;
        break;
      }
    }
    if (!retirable) {
      still_pinned.push_back(std::move(r));
      continue;
    }
    for (const ChunkedArray::Compaction& c : r.measures) {
      FreeBestEffort(c.old_data_oid);
      FreeBestEffort(c.old_meta_oid);
      if (metric_retired_freed_ != nullptr) {
        metric_retired_freed_->Increment(2);
      }
    }
  }
  graveyard_ = std::move(still_pinned);
  return Status::OK();
}

}  // namespace paradise
