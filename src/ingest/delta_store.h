// Delta generations: the durable unit of incremental ingest. Each Commit()
// freezes the writer's buffered cells into one DeltaGeneration, spills it to
// a single storage object ("PDLT" blob) registered under the
// "ingest.delta.<seq>" catalog root, and records it in the "ingest.state"
// object. Memory keeps no generation past its commit: FoldGeneration folds
// it into the measures' DeltaOverlays, which ChunkedArray consults in its
// decode path; recovery folds the persisted generations in sequence order.
//
// Crash contract: generation and state objects are only ever created fresh
// and published through new catalog roots (copy-on-write all the way down),
// so any crash before the next checkpoint recovers to the previous commit
// epoch with the previous generation set intact.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "array/chunk.h"
#include "array/delta_overlay.h"
#include "common/result.h"
#include "common/status.h"

namespace paradise {

/// One committed batch of ingest writes. Per measure, per chunk, the
/// (offsetInChunk, value) upserts in arrival order — later entries at the
/// same offset win when the generation folds into an overlay.
struct DeltaGeneration {
  uint64_t seq = 0;
  /// measures[m] maps chunk number -> upserts for that chunk.
  std::vector<std::map<uint64_t, std::vector<ChunkEntry>>> measures;

  explicit DeltaGeneration(size_t num_measures = 0) : measures(num_measures) {}

  uint64_t total_cells() const;
  bool empty() const { return total_cells() == 0; }

  /// "PDLT" blob: magic, version, seq, measure count, then per measure the
  /// chunk count and per chunk (chunk_no, cell count, cells).
  std::string Serialize() const;
  static Result<DeltaGeneration> Deserialize(std::string_view blob);
};

/// `overlays` (one per measure; null = no deltas, the no-overlay fast path)
/// with `gen`, the next generation in commit order, folded in. A measure
/// `gen` touches gets a folded copy; input overlays, which readers may hold,
/// are never changed.
std::vector<std::shared_ptr<const DeltaOverlay>> FoldGeneration(
    const std::vector<std::shared_ptr<const DeltaOverlay>>& overlays,
    DeltaGeneration gen);

}  // namespace paradise
