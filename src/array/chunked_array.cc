#include "array/chunked_array.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "common/coding.h"
#include "storage/io_pool.h"

namespace paradise {

namespace {
// Meta object layout:
//   [0,4)   magic "CARR"
//   [4]     chunk format byte (ChunkFormat)
//   [5,9)   default chunk extent (ArrayOptions round-trip)
//   [9,17)  data ObjectId
//   then the serialized ChunkLayout
//   then the directory: per chunk, fixed64 byte offset + fixed64 byte
//   length + fixed32 valid count.
constexpr char kMagic[4] = {'C', 'A', 'R', 'R'};
constexpr size_t kDataOidOffset = 9;
constexpr size_t kLayoutOffset = 17;
constexpr size_t kDirEntryBytes = 20;

Status CheckChunkNo(const ChunkLayout& layout, uint64_t chunk_no) {
  if (chunk_no < layout.num_chunks()) return Status::OK();
  return Status::OutOfRange("chunk " + std::to_string(chunk_no) + " beyond " +
                            std::to_string(layout.num_chunks()));
}
}  // namespace

ChunkedArray::ChunkedArray(StorageManager* storage, ObjectId meta,
                           ObjectId data, ChunkLayout layout,
                           ArrayOptions options,
                           std::vector<ChunkInfo> directory)
    : storage_(storage),
      layout_(std::move(layout)),
      options_(options) {
  auto v = std::make_shared<Version>();
  v->meta_oid = meta;
  v->data_oid = data;
  v->directory = std::move(directory);
  v->base_ref = std::make_shared<int>(0);
  version_ = std::move(v);
}

ChunkedArray::ChunkedArray(const ChunkedArray& o)
    : storage_(o.storage_),
      layout_(o.layout_),
      options_(o.options_),
      version_(o.version()) {}

ChunkedArray& ChunkedArray::operator=(const ChunkedArray& o) {
  if (this == &o) return *this;
  VersionPtr v = o.version();
  storage_ = o.storage_;
  layout_ = o.layout_;
  options_ = o.options_;
  StoreVersion(std::move(v));
  return *this;
}

ChunkedArray::ChunkedArray(ChunkedArray&& o) noexcept
    : storage_(o.storage_),
      layout_(std::move(o.layout_)),
      options_(o.options_),
      version_(o.version()) {}

ChunkedArray& ChunkedArray::operator=(ChunkedArray&& o) noexcept {
  if (this == &o) return *this;
  VersionPtr v = o.version();
  storage_ = o.storage_;
  layout_ = std::move(o.layout_);
  options_ = o.options_;
  StoreVersion(std::move(v));
  return *this;
}

ObjectId ChunkedArray::meta_oid() const { return version()->meta_oid; }

Status ChunkedArray::Builder::Put(const CellCoords& coords, int64_t value) {
  if (coords.size() != layout_.num_dims()) {
    return Status::InvalidArgument("coordinate arity mismatch");
  }
  for (size_t i = 0; i < coords.size(); ++i) {
    if (coords[i] >= layout_.dims()[i]) {
      return Status::OutOfRange("coordinate " + std::to_string(coords[i]) +
                                " beyond dimension " + std::to_string(i));
    }
  }
  const uint64_t chunk_no = layout_.CoordsToChunk(coords);
  auto [it, inserted] =
      chunks_.try_emplace(chunk_no, layout_.ChunkCellCount(chunk_no));
  return it->second.Put(layout_.CoordsToOffset(coords), value);
}

Result<ChunkedArray> ChunkedArray::Builder::Finish() {
  PARADISE_RETURN_IF_ERROR(options_.Validate());
  // Test/CI hook: PARADISE_FORCE_CHUNK_FORMAT overrides the configured
  // format so the whole suite can run once per codec (the codec-matrix CI
  // job); a value that names no codec fails the build.
  PARADISE_ASSIGN_OR_RETURN(std::optional<ChunkFormat> forced,
                            ForcedChunkFormatFromEnv());
  if (forced) options_.chunk_format = *forced;
  std::vector<ChunkInfo> directory(layout_.num_chunks());
  // Pack chunks back-to-back in chunk-number order (std::map iterates keys
  // in order) so byte order matches logical order.
  std::string data;
  for (const auto& [chunk_no, chunk] : chunks_) {
    if (chunk.empty()) continue;
    const std::string blob = chunk.Serialize(options_.chunk_format);
    directory[chunk_no] =
        ChunkInfo{data.size(), blob.size(), chunk.num_valid()};
    data.append(blob);
  }
  PARADISE_ASSIGN_OR_RETURN(ObjectId data_oid,
                            storage_->objects()->Create(data));
  Version v;
  v.data_oid = data_oid;
  v.directory = std::move(directory);
  PARADISE_ASSIGN_OR_RETURN(
      ObjectId meta,
      storage_->objects()->Create(SerializeMeta(v, layout_, options_)));
  return ChunkedArray(storage_, meta, data_oid, layout_, options_,
                      std::move(v.directory));
}

std::string ChunkedArray::SerializeMeta(const Version& v,
                                        const ChunkLayout& layout,
                                        const ArrayOptions& options) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(options.chunk_format));
  char scratch[8];
  EncodeFixed32(scratch, options.default_chunk_extent);
  out.append(scratch, 4);
  EncodeFixed64(scratch, v.data_oid);
  out.append(scratch, 8);
  out.append(layout.Serialize());
  for (const ChunkInfo& info : v.directory) {
    EncodeFixed64(scratch, info.offset);
    out.append(scratch, 8);
    EncodeFixed64(scratch, info.bytes);
    out.append(scratch, 8);
    EncodeFixed32(scratch, info.num_valid);
    out.append(scratch, 4);
  }
  return out;
}

Result<ChunkedArray> ChunkedArray::Open(StorageManager* storage,
                                        ObjectId meta) {
  PARADISE_ASSIGN_OR_RETURN(std::string blob, storage->objects()->Read(meta));
  if (blob.size() < kLayoutOffset ||
      std::memcmp(blob.data(), kMagic, 4) != 0) {
    return Status::Corruption("object " + std::to_string(meta) +
                              " is not a chunked array");
  }
  // A chunk-format byte this build does not know means the file was written
  // by a newer build (or the byte is corrupt); either way decoding the data
  // object would misread it, so reject with a typed error instead of
  // casting blindly.
  const uint8_t format_byte = static_cast<uint8_t>(blob[4]);
  if (format_byte > kMaxChunkFormat) {
    return Status::NotSupported(
        "chunked array " + std::to_string(meta) + " uses chunk format " +
        std::to_string(format_byte) + " but this build supports at most " +
        std::to_string(kMaxChunkFormat));
  }
  ArrayOptions options;
  options.chunk_format = static_cast<ChunkFormat>(format_byte);
  options.default_chunk_extent = DecodeFixed32(blob.data() + 5);
  const ObjectId data_oid = DecodeFixed64(blob.data() + kDataOidOffset);
  size_t consumed = 0;
  PARADISE_ASSIGN_OR_RETURN(
      ChunkLayout layout,
      ChunkLayout::Deserialize(
          {blob.data() + kLayoutOffset, blob.size() - kLayoutOffset},
          &consumed));
  const size_t dir_start = kLayoutOffset + consumed;
  const uint64_t num_chunks = layout.num_chunks();
  if (blob.size() != dir_start + num_chunks * kDirEntryBytes) {
    return Status::Corruption("chunked-array directory size mismatch");
  }
  std::vector<ChunkInfo> directory(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    const char* p = blob.data() + dir_start + c * kDirEntryBytes;
    directory[c].offset = DecodeFixed64(p);
    directory[c].bytes = DecodeFixed64(p + 8);
    directory[c].num_valid = DecodeFixed32(p + 16);
  }
  return ChunkedArray(storage, meta, data_oid, std::move(layout), options,
                      std::move(directory));
}

Result<std::string> ChunkedArray::ReadBaseChunkBlobAt(
    const Version& v, uint64_t chunk_no) const {
  const ChunkInfo& info = v.directory[chunk_no];
  if (info.num_valid == 0) return std::string();
  PARADISE_ASSIGN_OR_RETURN(
      std::string blob,
      storage_->objects()->ReadRange(v.data_oid, info.offset, info.bytes));
  // LZW-wrapped chunks decompress here so every caller sees dense/sparse.
  return UnwrapChunkBlob(std::move(blob));
}

Result<ChunkedArray::ChunkParts> ChunkedArray::ReadChunkPartsAt(
    const Version& v, uint64_t chunk_no) const {
  ChunkParts parts;
  PARADISE_ASSIGN_OR_RETURN(parts.base, ReadBaseChunkBlobAt(v, chunk_no));
  if (v.overlay != nullptr) parts.delta = v.overlay->Find(chunk_no);
  return parts;
}

Result<std::string> ChunkedArray::ReadChunkBlob(uint64_t chunk_no) const {
  PARADISE_RETURN_IF_ERROR(CheckChunkNo(layout_, chunk_no));
  const VersionPtr v = version();  // keeps parts.delta alive
  PARADISE_ASSIGN_OR_RETURN(ChunkParts parts, ReadChunkPartsAt(*v, chunk_no));
  if (parts.delta == nullptr) return std::move(parts.base);
  // Merge through the array's configured format and unwrap again: the bytes
  // handed out are exactly what a from-scratch load of the merged cells
  // would produce.
  PARADISE_ASSIGN_OR_RETURN(
      std::string merged,
      MergeChunkBlob(parts.base, *parts.delta,
                     layout_.ChunkCellCount(chunk_no), options_.chunk_format,
                     nullptr));
  return UnwrapChunkBlob(std::move(merged));
}

Result<ChunkedArray::ChunkParts> ChunkedArray::ReadChunkParts(
    uint64_t chunk_no) const {
  PARADISE_RETURN_IF_ERROR(CheckChunkNo(layout_, chunk_no));
  return ReadChunkPartsAt(*version(), chunk_no);
}

bool ChunkedArray::ChunkIsEmpty(uint64_t chunk_no) const {
  if (chunk_no >= layout_.num_chunks()) return true;
  const VersionPtr v = version();
  return v->directory[chunk_no].num_valid == 0 &&
         (v->overlay == nullptr || v->overlay->Find(chunk_no) == nullptr);
}

uint32_t ChunkedArray::ChunkValidCount(uint64_t chunk_no) const {
  if (chunk_no >= layout_.num_chunks()) return 0;
  return version()->directory[chunk_no].num_valid;
}

Result<std::optional<int64_t>> ChunkedArray::GetCell(
    const CellCoords& coords) const {
  const VersionPtr v = version();
  const uint64_t chunk_no = layout_.CoordsToChunk(coords);
  const uint32_t offset = layout_.CoordsToOffset(coords);
  // Overlay deltas are upserts, so a delta hit answers without touching the
  // base chunk at all.
  if (v->overlay != nullptr) {
    const ChunkDelta* delta = v->overlay->Find(chunk_no);
    if (delta != nullptr) {
      auto it = std::lower_bound(
          delta->cells.begin(), delta->cells.end(), offset,
          [](const ChunkEntry& e, uint32_t o) { return e.offset < o; });
      if (it != delta->cells.end() && it->offset == offset) {
        return std::optional<int64_t>{it->value};
      }
    }
  }
  PARADISE_ASSIGN_OR_RETURN(std::string blob,
                            ReadBaseChunkBlobAt(*v, chunk_no));
  if (blob.empty()) return std::optional<int64_t>{};
  PARADISE_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Make(blob));
  return view.Get(offset);
}

uint64_t ChunkedArray::num_valid_cells() const {
  const VersionPtr v = version();
  uint64_t n = 0;
  for (const ChunkInfo& info : v->directory) n += info.num_valid;
  return n;
}

uint64_t ChunkedArray::TotalDataBytes() const {
  const VersionPtr v = version();
  uint64_t n = 0;
  for (const ChunkInfo& info : v->directory) {
    if (info.num_valid > 0) n += info.bytes;
  }
  return n;
}

Result<uint64_t> ChunkedArray::TotalPages() const {
  const VersionPtr v = version();
  PARADISE_ASSIGN_OR_RETURN(uint64_t meta_pages,
                            storage_->objects()->PageFootprint(v->meta_oid));
  PARADISE_ASSIGN_OR_RETURN(uint64_t data_pages,
                            storage_->objects()->PageFootprint(v->data_oid));
  return meta_pages + data_pages;
}

void ChunkedArray::PublishOverlay(
    std::shared_ptr<const DeltaOverlay> overlay) {
  const VersionPtr v = version();
  auto nv = std::make_shared<Version>(*v);
  nv->overlay = std::move(overlay);
  StoreVersion(std::move(nv));
}

Result<ChunkedArray::Compaction> ChunkedArray::PrepareCompaction(
    const DeltaOverlay& overlay, IoPool* io_pool,
    const CancellationToken* cancel) {
  const VersionPtr v = version();
  const uint64_t num_chunks = layout_.num_chunks();
  for (const auto& [chunk_no, delta] : overlay.chunks()) {
    if (chunk_no >= num_chunks) {
      return Status::Corruption("delta targets chunk " +
                                std::to_string(chunk_no) + " beyond " +
                                std::to_string(num_chunks));
    }
  }
  if (cancel != nullptr) PARADISE_RETURN_IF_ERROR(cancel->Check());
  // One sequential read of the packed object; untouched chunks are copied
  // from this buffer byte-identically, delta chunks merge against it.
  PARADISE_ASSIGN_OR_RETURN(std::string old_data,
                            storage_->objects()->Read(v->data_oid));

  struct MergeSlot {
    std::string blob;
    uint32_t valid = 0;
    Status status;
    bool done = false;
  };
  std::vector<MergeSlot> merged(num_chunks);
  std::atomic<bool> abort{false};
  auto merge_one = [&](uint64_t c, const ChunkDelta* delta) {
    if (abort.load(std::memory_order_relaxed)) return;
    if (cancel != nullptr && cancel->ShouldStop()) {
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    MergeSlot& slot = merged[c];
    std::string base;
    const ChunkInfo& info = v->directory[c];
    if (info.num_valid > 0) {
      Result<std::string> base_or =
          UnwrapChunkBlob(old_data.substr(info.offset, info.bytes));
      if (!base_or.ok()) {
        slot.status = base_or.status();
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      base = std::move(base_or).value();
    }
    Result<std::string> blob_or =
        MergeChunkBlob(base, *delta, layout_.ChunkCellCount(c),
                       options_.chunk_format, &slot.valid);
    if (!blob_or.ok()) {
      slot.status = blob_or.status();
      abort.store(true, std::memory_order_relaxed);
      return;
    }
    slot.blob = std::move(blob_or).value();
    slot.done = true;
  };
  // The merge work (decode + upsert + re-encode, LZW included) is the CPU
  // cost of compaction; fan it across the IoPool and Drain as the barrier.
  // A refused Submit (pool shutting down) just runs the merge inline.
  if (io_pool != nullptr) {
    for (const auto& [chunk_no, delta] : overlay.chunks()) {
      const uint64_t c = chunk_no;
      const ChunkDelta* d = &delta;
      if (!io_pool->Submit([&merge_one, c, d] { merge_one(c, d); })) {
        merge_one(c, d);
      }
    }
    io_pool->Drain();
  } else {
    for (const auto& [chunk_no, delta] : overlay.chunks()) {
      merge_one(chunk_no, &delta);
    }
  }
  if (cancel != nullptr) PARADISE_RETURN_IF_ERROR(cancel->Check());
  for (const auto& [chunk_no, delta] : overlay.chunks()) {
    if (!merged[chunk_no].status.ok()) return merged[chunk_no].status;
    if (!merged[chunk_no].done) {
      return Status::Internal("chunk merge did not run");
    }
  }

  // Assemble the replacement packed object + directory. Nothing has been
  // allocated yet, so every earlier failure path leaves storage untouched.
  auto nv = std::make_shared<Version>();
  nv->directory.resize(num_chunks);
  nv->base_ref = std::make_shared<int>(0);  // fresh storage generation
  std::string data;
  uint64_t merged_chunks = 0;
  uint64_t merged_cells = 0;
  for (uint64_t c = 0; c < num_chunks; ++c) {
    if (overlay.Find(c) != nullptr) {
      MergeSlot& slot = merged[c];
      if (slot.valid == 0) continue;
      nv->directory[c] = ChunkInfo{data.size(), slot.blob.size(), slot.valid};
      data.append(slot.blob);
      ++merged_chunks;
      merged_cells += slot.valid;
      continue;
    }
    const ChunkInfo& info = v->directory[c];
    if (info.num_valid == 0) continue;
    nv->directory[c] = ChunkInfo{data.size(), info.bytes, info.num_valid};
    data.append(old_data, info.offset, info.bytes);
  }
  PARADISE_ASSIGN_OR_RETURN(ObjectId new_data,
                            storage_->objects()->Create(data));
  nv->data_oid = new_data;
  Result<ObjectId> meta_or =
      storage_->objects()->Create(SerializeMeta(*nv, layout_, options_));
  if (!meta_or.ok()) {
    (void)storage_->objects()->Free(new_data);
    return meta_or.status();
  }
  nv->meta_oid = meta_or.value();

  Compaction out;
  out.old_data_oid = v->data_oid;
  out.old_meta_oid = v->meta_oid;
  out.new_data_oid = nv->data_oid;
  out.new_meta_oid = nv->meta_oid;
  out.merged_chunks = merged_chunks;
  out.merged_cells = merged_cells;
  out.pending = nv;
  out.replaced = v->base_ref;
  return out;
}

void ChunkedArray::PublishCompaction(const Compaction& c) {
  StoreVersion(std::static_pointer_cast<const Version>(c.pending));
}

}  // namespace paradise
