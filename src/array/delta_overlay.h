// DeltaOverlay: the in-memory read-side of incremental ingest. Each ingest
// commit (src/ingest/) folds its batch into one immutable per-measure
// overlay — for each chunk, the sorted (offsetInChunk, value) upserts that
// supersede the packed base chunk. Readers never rebuild a chunk: they take
// the base chunk's bytes plus its ChunkDelta (ChunkedArray::ReadChunkParts)
// and merge the two sorted offset lists, a delta cell winning on an equal
// offset. ForEachMergedCell states that rule once, cell by cell; the scan
// kernel (DropSuperseded) and the §4.2 probe apply it in their vector paths,
// and GetCell checks the delta before the base. Only compaction and the
// public ChunkedArray::ReadChunkBlob re-serialize a merged chunk
// (MergeChunkBlob), byte-identical to a from-scratch load of the merged
// data. Overlays are immutable and shared by shared_ptr: publishing a new
// one never blocks or tears in-flight readers, which keep the overlay (and
// base version) they pinned at query start.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "array/chunk.h"
#include "common/options.h"
#include "common/result.h"

namespace paradise {

/// Upserts for one chunk, sorted by offset (unique offsets; later ingest
/// batches already folded in, last write wins).
struct ChunkDelta {
  std::vector<ChunkEntry> cells;
};

/// One measure's merged view of every committed-but-uncompacted delta.
class DeltaOverlay {
 public:
  /// The delta for `chunk_no`, or nullptr if the chunk has none.
  const ChunkDelta* Find(uint64_t chunk_no) const {
    auto it = chunks_.find(chunk_no);
    return it == chunks_.end() ? nullptr : &it->second;
  }

  bool empty() const { return chunks_.empty(); }
  size_t num_chunks() const { return chunks_.size(); }

  uint64_t total_cells() const {
    uint64_t n = 0;
    for (const auto& [chunk, delta] : chunks_) n += delta.cells.size();
    return n;
  }

  /// Folds one batch of upserts (arrival order, duplicates allowed) into
  /// `chunk_no` in one linear merge, the last write per offset winning —
  /// callers fold batches in commit order.
  void Apply(uint64_t chunk_no, std::vector<ChunkEntry> cells);

  const std::map<uint64_t, ChunkDelta>& chunks() const { return chunks_; }

 private:
  std::map<uint64_t, ChunkDelta> chunks_;
};

/// The base chunk's cells (null = empty base) with `delta`'s upserts (null =
/// none) merged in: calls `fn(offset, value)` for every merged cell in
/// increasing offset order, a delta cell replacing the base cell at the same
/// offset.
template <typename Fn>
void ForEachMergedCell(const ChunkView* base, const ChunkDelta* delta,
                       Fn&& fn) {
  const ChunkEntry* next = delta == nullptr ? nullptr : delta->cells.data();
  const ChunkEntry* const end =
      delta == nullptr ? nullptr : next + delta->cells.size();
  if (base != nullptr) {
    base->ForEach([&](uint32_t offset, int64_t value) {
      for (; next != end && next->offset < offset; ++next) {
        fn(next->offset, next->value);
      }
      if (next != end && next->offset == offset) {
        fn(offset, next->value);
        ++next;
        return;
      }
      fn(offset, value);
    });
  }
  for (; next != end; ++next) fn(next->offset, next->value);
}

/// Serialized merge: base chunk bytes (LZW unwrapped; empty string = empty
/// base chunk) + delta -> the merged chunk re-serialized in `format`,
/// byte-identical to what a bulk load of the merged cells would pack, in one
/// linear pass (ForEachMergedCell). `capacity` is the chunk's cell count
/// from the layout; a cell at or beyond it fails with OutOfRange. Returns
/// the merged blob and writes the merged valid-cell count to
/// `merged_valid`.
Result<std::string> MergeChunkBlob(const std::string& base_blob,
                                   const ChunkDelta& delta, uint32_t capacity,
                                   ChunkFormat format, uint32_t* merged_valid);

}  // namespace paradise
