#include "array/chunk_layout.h"

#include <algorithm>
#include <sstream>

#include "common/coding.h"

namespace paradise {

Result<ChunkLayout> ChunkLayout::Make(std::vector<uint32_t> dims,
                                      std::vector<uint32_t> chunk_extents) {
  if (dims.empty()) {
    return Status::InvalidArgument("array must have at least one dimension");
  }
  if (dims.size() != chunk_extents.size()) {
    return Status::InvalidArgument("dims and chunk_extents length mismatch");
  }
  // Overflow-safe running product: saturates at UINT64_MAX instead of
  // wrapping, so e.g. three 2^22 extents (product 2^66) cannot slip past the
  // uint32 bound below by wrapping to a small number.
  auto checked_mul = [](uint64_t a, uint64_t b) {
    return (b != 0 && a > UINT64_MAX / b) ? UINT64_MAX : a * b;
  };
  uint64_t cells = 1;
  uint64_t chunk_cells = 1;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == 0 || chunk_extents[i] == 0) {
      return Status::InvalidArgument(
          "dimension sizes and chunk extents must be positive");
    }
    cells = checked_mul(cells, dims[i]);
    chunk_cells = checked_mul(chunk_cells, chunk_extents[i]);
  }
  // Chunk cell counts must fit an offset in uint32 — CoordsToOffset and the
  // chunk-offset compression store per-chunk offsets as uint32.
  if (chunk_cells > UINT32_MAX) {
    return Status::InvalidArgument("chunk too large: offsets must fit uint32");
  }
  // Global cell indices are uint64; a wrapped total would alias cells.
  if (cells == UINT64_MAX) {
    return Status::InvalidArgument("array too large: cell count overflows");
  }
  return ChunkLayout(std::move(dims), std::move(chunk_extents));
}

ChunkLayout::ChunkLayout(std::vector<uint32_t> dims,
                         std::vector<uint32_t> chunk_extents)
    : dims_(std::move(dims)), chunk_extents_(std::move(chunk_extents)) {
  chunks_per_dim_.resize(dims_.size());
  total_cells_ = 1;
  num_chunks_ = 1;
  for (size_t i = 0; i < dims_.size(); ++i) {
    chunks_per_dim_[i] = (dims_[i] + chunk_extents_[i] - 1) / chunk_extents_[i];
    total_cells_ *= dims_[i];
    num_chunks_ *= chunks_per_dim_[i];
  }
}

uint64_t ChunkLayout::CoordsToGlobal(const CellCoords& c) const {
  uint64_t idx = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    idx = idx * dims_[i] + c[i];
  }
  return idx;
}

CellCoords ChunkLayout::GlobalToCoords(uint64_t global) const {
  CellCoords c(dims_.size());
  for (size_t i = dims_.size(); i > 0; --i) {
    c[i - 1] = static_cast<uint32_t>(global % dims_[i - 1]);
    global /= dims_[i - 1];
  }
  return c;
}

uint64_t ChunkLayout::CoordsToChunk(const CellCoords& c) const {
  uint64_t idx = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    idx = idx * chunks_per_dim_[i] + c[i] / chunk_extents_[i];
  }
  return idx;
}

uint32_t ChunkLayout::CoordsToOffset(const CellCoords& c) const {
  // Row-major within the chunk's actual dims (clipped at borders).
  uint32_t offset = 0;
  for (size_t i = 0; i < dims_.size(); ++i) {
    const uint32_t chunk_coord = c[i] / chunk_extents_[i];
    const uint32_t base = chunk_coord * chunk_extents_[i];
    const uint32_t side = std::min(chunk_extents_[i], dims_[i] - base);
    offset = offset * side + (c[i] - base);
  }
  return offset;
}

CellCoords ChunkLayout::ChunkToChunkCoords(uint64_t chunk) const {
  CellCoords c(dims_.size());
  for (size_t i = dims_.size(); i > 0; --i) {
    c[i - 1] = static_cast<uint32_t>(chunk % chunks_per_dim_[i - 1]);
    chunk /= chunks_per_dim_[i - 1];
  }
  return c;
}

CellCoords ChunkLayout::ChunkBase(uint64_t chunk) const {
  CellCoords c = ChunkToChunkCoords(chunk);
  for (size_t i = 0; i < c.size(); ++i) c[i] *= chunk_extents_[i];
  return c;
}

CellCoords ChunkLayout::ChunkDims(uint64_t chunk) const {
  CellCoords base(dims_.size());
  CellCoords d(dims_.size());
  ChunkBox(chunk, base.data(), d.data());
  return d;
}

void ChunkLayout::ChunkBox(uint64_t chunk, uint32_t* base,
                           uint32_t* dims) const {
  for (size_t i = dims_.size(); i > 0; --i) {
    base[i - 1] = static_cast<uint32_t>(chunk % chunks_per_dim_[i - 1]) *
                  chunk_extents_[i - 1];
    chunk /= chunks_per_dim_[i - 1];
    dims[i - 1] = std::min(chunk_extents_[i - 1], dims_[i - 1] - base[i - 1]);
  }
}

uint32_t ChunkLayout::ChunkCellCount(uint64_t chunk) const {
  uint32_t n = 1;
  for (uint32_t d : ChunkDims(chunk)) n *= d;
  return n;
}

CellCoords ChunkLayout::ChunkOffsetToCoords(uint64_t chunk,
                                            uint32_t offset) const {
  const CellCoords base = ChunkBase(chunk);
  const CellCoords cdims = ChunkDims(chunk);
  CellCoords c(dims_.size());
  for (size_t i = dims_.size(); i > 0; --i) {
    c[i - 1] = base[i - 1] + offset % cdims[i - 1];
    offset /= cdims[i - 1];
  }
  return c;
}

std::string ChunkLayout::ToString() const {
  std::ostringstream os;
  os << "array ";
  for (size_t i = 0; i < dims_.size(); ++i) {
    os << (i == 0 ? "" : "x") << dims_[i];
  }
  os << ", chunks ";
  for (size_t i = 0; i < chunk_extents_.size(); ++i) {
    os << (i == 0 ? "" : "x") << chunk_extents_[i];
  }
  os << " (" << num_chunks_ << " chunks)";
  return os.str();
}

std::string ChunkLayout::Serialize() const {
  std::string out;
  char scratch[4];
  EncodeFixed32(scratch, static_cast<uint32_t>(dims_.size()));
  out.append(scratch, 4);
  for (uint32_t d : dims_) {
    EncodeFixed32(scratch, d);
    out.append(scratch, 4);
  }
  for (uint32_t e : chunk_extents_) {
    EncodeFixed32(scratch, e);
    out.append(scratch, 4);
  }
  return out;
}

Result<ChunkLayout> ChunkLayout::Deserialize(std::string_view data,
                                             size_t* consumed) {
  if (data.size() < 4) return Status::Corruption("layout blob too small");
  const uint32_t n = DecodeFixed32(data.data());
  const size_t need = 4 + static_cast<size_t>(n) * 8;
  if (data.size() < need) return Status::Corruption("layout blob truncated");
  std::vector<uint32_t> dims(n), extents(n);
  for (uint32_t i = 0; i < n; ++i) {
    dims[i] = DecodeFixed32(data.data() + 4 + i * 4);
    extents[i] = DecodeFixed32(data.data() + 4 + (n + i) * 4);
  }
  if (consumed != nullptr) *consumed = need;
  return Make(std::move(dims), std::move(extents));
}

}  // namespace paradise
