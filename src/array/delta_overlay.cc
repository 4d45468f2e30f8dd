#include "array/delta_overlay.h"

#include <optional>

namespace paradise {

void DeltaOverlay::Apply(uint64_t chunk_no,
                         const std::vector<ChunkEntry>& cells) {
  if (cells.empty()) return;
  ChunkDelta& delta = chunks_[chunk_no];
  // Merge into the sorted vector via a temporary offset map: generations are
  // applied once per commit, never per read, so simplicity beats constant
  // factors here.
  std::map<uint32_t, int64_t> merged;
  for (const ChunkEntry& e : delta.cells) merged[e.offset] = e.value;
  for (const ChunkEntry& e : cells) merged[e.offset] = e.value;
  delta.cells.clear();
  delta.cells.reserve(merged.size());
  for (const auto& [offset, value] : merged) {
    delta.cells.push_back(ChunkEntry{offset, value});
  }
}

Result<std::string> MergeChunkBlob(const std::string& base_blob,
                                   const ChunkDelta& delta, uint32_t capacity,
                                   ChunkFormat format,
                                   uint32_t* merged_valid) {
  std::optional<ChunkView> base;
  if (!base_blob.empty()) {
    PARADISE_ASSIGN_OR_RETURN(base, ChunkView::Make(base_blob));
  }
  Chunk chunk(capacity);
  Status st = Status::OK();
  ForEachMergedCell(base ? &*base : nullptr, &delta,
                    [&](uint32_t offset, int64_t value) {
                      if (st.ok()) st = chunk.AppendSorted(offset, value);
                    });
  PARADISE_RETURN_IF_ERROR(st);
  if (merged_valid != nullptr) *merged_valid = chunk.num_valid();
  return chunk.Serialize(format);
}

}  // namespace paradise
