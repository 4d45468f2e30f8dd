#include "array/delta_overlay.h"

#include <algorithm>
#include <iterator>
#include <optional>

namespace paradise {

void DeltaOverlay::Apply(uint64_t chunk_no, std::vector<ChunkEntry> cells) {
  if (cells.empty()) return;
  const auto by_offset = [](const ChunkEntry& x, const ChunkEntry& y) {
    return x.offset < y.offset;
  };
  std::stable_sort(cells.begin(), cells.end(), by_offset);
  std::vector<ChunkEntry>& delta = chunks_[chunk_no].cells;
  const auto old_end = static_cast<std::ptrdiff_t>(delta.size());
  delta.insert(delta.end(), cells.begin(), cells.end());
  // Stable: at an equal offset the older cell stays first, so keeping each
  // offset's last cell keeps its newest write.
  std::inplace_merge(delta.begin(), delta.begin() + old_end, delta.end(),
                     by_offset);
  auto out = delta.begin();
  for (const ChunkEntry& e : delta) {
    if (out != delta.begin() && std::prev(out)->offset == e.offset) {
      *std::prev(out) = e;
    } else {
      *out++ = e;
    }
  }
  delta.erase(out, delta.end());
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
