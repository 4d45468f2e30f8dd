// ChunkLayout: the pure geometry of an n-dimensional tiled array — cell
// coordinates, row-major global indices, chunk numbers, and offsets within a
// chunk (the "offsetInChunk" of the paper's §3.3 compression). Border chunks
// may be smaller than the nominal chunk extents; offsets are always computed
// against the chunk's *actual* dimensions so compressed chunks stay dense.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace paradise {

/// Cell coordinates, one per dimension.
using CellCoords = std::vector<uint32_t>;

class ChunkLayout {
 public:
  ChunkLayout() = default;

  /// `dims[i]` is the size of dimension i; `chunk_extents[i]` the nominal
  /// chunk side along it (clipped at array borders).
  static Result<ChunkLayout> Make(std::vector<uint32_t> dims,
                                  std::vector<uint32_t> chunk_extents);

  size_t num_dims() const { return dims_.size(); }
  const std::vector<uint32_t>& dims() const { return dims_; }
  const std::vector<uint32_t>& chunk_extents() const { return chunk_extents_; }
  const std::vector<uint32_t>& chunks_per_dim() const {
    return chunks_per_dim_;
  }

  /// Total logical cells in the array.
  uint64_t total_cells() const { return total_cells_; }

  /// Total chunks.
  uint64_t num_chunks() const { return num_chunks_; }

  /// Row-major global index of a cell.
  uint64_t CoordsToGlobal(const CellCoords& c) const;

  /// Inverse of CoordsToGlobal.
  CellCoords GlobalToCoords(uint64_t global) const;

  /// Chunk number (row-major over chunk grid) containing a cell.
  uint64_t CoordsToChunk(const CellCoords& c) const;

  /// Offset of a cell within its chunk (row-major over the chunk's actual
  /// dims).
  uint32_t CoordsToOffset(const CellCoords& c) const;

  /// Chunk-grid coordinates of a chunk number.
  CellCoords ChunkToChunkCoords(uint64_t chunk) const;

  /// First (lowest) cell coordinates of a chunk.
  CellCoords ChunkBase(uint64_t chunk) const;

  /// Actual dimensions of a chunk (smaller at array borders).
  CellCoords ChunkDims(uint64_t chunk) const;

  /// ChunkBase and ChunkDims of `chunk` at once, into `base` and `dims`
  /// (num_dims() entries each), without allocating.
  void ChunkBox(uint64_t chunk, uint32_t* base, uint32_t* dims) const;

  /// Number of cells in a chunk.
  uint32_t ChunkCellCount(uint64_t chunk) const;

  /// Cell coordinates of (chunk, offset).
  CellCoords ChunkOffsetToCoords(uint64_t chunk, uint32_t offset) const;

  std::string ToString() const;

  bool operator==(const ChunkLayout& o) const {
    return dims_ == o.dims_ && chunk_extents_ == o.chunk_extents_;
  }

  /// Serialization for the array's meta object.
  std::string Serialize() const;
  static Result<ChunkLayout> Deserialize(std::string_view data,
                                         size_t* consumed);

 private:
  ChunkLayout(std::vector<uint32_t> dims, std::vector<uint32_t> chunk_extents);

  std::vector<uint32_t> dims_;
  std::vector<uint32_t> chunk_extents_;
  std::vector<uint32_t> chunks_per_dim_;
  uint64_t total_cells_ = 0;
  uint64_t num_chunks_ = 0;
};

}  // namespace paradise
