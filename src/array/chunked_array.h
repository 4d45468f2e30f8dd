// ChunkedArray: a persistent tiled n-dimensional array of int64 cells.
// All chunk blobs are packed back-to-back, in chunk-number order, inside ONE
// large object (the "data file"); a directory of per-chunk byte offsets and
// lengths lives in the array's meta object — exactly the paper's layout:
// "we use some meta data to hold the OID and the length of each chunk and
// store the meta data at the beginning of the data file" (§3.3). Packing
// means a full-array scan reads only ceil(data/page_size) pages, which is
// what makes the compressed array's scan cheaper than the fact file's.
//
// Incremental ingest (src/ingest/) versions the array: the packed-object id,
// the chunk directory, and an optional DeltaOverlay live in one immutable
// Version snapshot behind a shared_ptr. Every read method pins the current
// Version once per call, and a COPY of a ChunkedArray pins it for the copy's
// lifetime — the query engines copy the array at query start, so a whole
// query sees one consistent version while ingest commits and compactions
// publish new ones underneath. Publishing swaps one pointer; readers never
// block. Every walk over stored cells — the array executor, the §3.5 slice
// and subset-sum functions — copies the array once and reads each chunk as
// its base bytes plus the version's sorted delta (ReadChunkParts), merging
// the two as it goes (ForEachMergedCell, or the scan kernel's vector form).
// ReadChunkBlob hands out the merged chunk re-encoded, so delta-only and
// delta-over-base chunks are indistinguishable from a from-scratch load of
// the merged data.
//
// After Builder::Finish, a version changes only through PublishOverlay and
// PublishCompaction, so cells change only through ingest (src/ingest/).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "array/chunk.h"
#include "array/chunk_layout.h"
#include "array/delta_overlay.h"
#include "common/cancellation.h"
#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/storage_manager.h"

namespace paradise {

class ChunkedArray {
 public:
  /// Accumulates cells in memory grouped by chunk, then packs every
  /// non-empty chunk in chunk-number order into the data object (so chunk
  /// order matches byte/physical order, as §4.2's optimizations assume) and
  /// writes the meta object.
  class Builder {
   public:
    Builder(StorageManager* storage, ChunkLayout layout, ArrayOptions options)
        : storage_(storage),
          layout_(std::move(layout)),
          options_(options) {}

    /// Sets the cell at `coords` (last write wins).
    Status Put(const CellCoords& coords, int64_t value);

    /// Writes data + meta and opens the resulting array.
    Result<ChunkedArray> Finish();

   private:
    StorageManager* storage_;
    ChunkLayout layout_;
    ArrayOptions options_;
    std::map<uint64_t, Chunk> chunks_;
  };

  ChunkedArray() = default;

  // Copies share the source's immutable Version snapshot (see above); the
  // copy keeps reading that version even after the source publishes a new
  // one — the engines' per-query pin.
  ChunkedArray(const ChunkedArray& o);
  ChunkedArray& operator=(const ChunkedArray& o);
  ChunkedArray(ChunkedArray&& o) noexcept;
  ChunkedArray& operator=(ChunkedArray&& o) noexcept;

  /// Opens an array from its meta object id.
  static Result<ChunkedArray> Open(StorageManager* storage, ObjectId meta);

  const ChunkLayout& layout() const { return layout_; }
  const ArrayOptions& options() const { return options_; }
  ObjectId meta_oid() const;

  /// Value of one cell, or nullopt if invalid. Reads only the pages of the
  /// containing chunk (plus the overlay, which is in memory).
  Result<std::optional<int64_t>> GetCell(const CellCoords& coords) const;

  /// Reads one chunk's raw serialized bytes (empty string for an empty
  /// chunk), with any overlay deltas merged in: exactly the bytes a
  /// from-scratch load of the merged cells would store (LZW unwrapped). A
  /// chunk with deltas is re-encoded on every call, so the query path reads
  /// ReadChunkParts instead. Pair with ChunkView for zero-copy probing.
  Result<std::string> ReadChunkBlob(uint64_t chunk_no) const;

  /// One chunk as the current version stores it: the base chunk's
  /// serialized bytes (LZW unwrapped; empty when the base chunk is empty)
  /// and the overlay's sorted upserts for the chunk (null when none), which
  /// supersede base cells at equal offsets. `delta` points into the
  /// version's overlay, so it stays valid while this object keeps that
  /// version — for the lifetime of a copy nobody publishes to, which is
  /// how the engines pin a query's version.
  struct ChunkParts {
    std::string base;
    const ChunkDelta* delta = nullptr;
  };
  Result<ChunkParts> ReadChunkParts(uint64_t chunk_no) const;

  /// True if the chunk has no valid cells — neither base cells in the
  /// directory nor overlay deltas.
  bool ChunkIsEmpty(uint64_t chunk_no) const;

  /// Valid-cell count of the BASE chunk as the directory lists it, without
  /// reading it; overlay deltas are not counted (ReadChunkParts returns
  /// them). Equals the merged count on overlay-free arrays.
  uint32_t ChunkValidCount(uint64_t chunk_no) const;

  /// Total valid cells across all BASE chunks (directory sum; overlay
  /// deltas not counted — see DeltaOverlay::total_cells for those).
  uint64_t num_valid_cells() const;

  /// Sum of serialized base-chunk byte lengths — the compressed array size
  /// the paper compares against the fact-file size (§5.5.1).
  uint64_t TotalDataBytes() const;

  /// Pages occupied by the data object and the meta object.
  Result<uint64_t> TotalPages() const;

  // --- incremental ingest (src/ingest/) ---

  /// Publishes a new Version with `overlay` replacing the current one (null
  /// clears it). The base object and directory are unchanged; in-flight
  /// readers keep their pinned version.
  void PublishOverlay(std::shared_ptr<const DeltaOverlay> overlay);

  /// The current version's overlay (null when none).
  std::shared_ptr<const DeltaOverlay> overlay() const { return version()->overlay; }

  /// A compaction prepared by PrepareCompaction: the copy-on-write
  /// replacement objects plus the ids the publisher must retire once no
  /// reader can still hold the old version.
  struct Compaction {
    ObjectId old_data_oid = kInvalidObjectId;
    ObjectId old_meta_oid = kInvalidObjectId;
    ObjectId new_data_oid = kInvalidObjectId;
    ObjectId new_meta_oid = kInvalidObjectId;
    uint64_t merged_chunks = 0;
    uint64_t merged_cells = 0;

   private:
    friend class ChunkedArray;
    // `pending` is the type-erased Version swapped in by PublishCompaction;
    // `replaced` is the old storage generation's base_ref token, shared by
    // EVERY version that reads the old data/meta objects — the version
    // current at prepare time and any older overlay siblings still pinned
    // by readers — so retirability sees all of them, not just the latest.
    std::shared_ptr<const void> pending;
    std::shared_ptr<const void> replaced;
  };

  /// Merges `overlay` into a copy-on-write rewrite of the packed data
  /// object: reads every delta-bearing chunk of the CURRENT base (never
  /// through the overlay), merges, and writes a brand-new data object and
  /// meta object. The current version stays untouched and fully readable —
  /// nothing is visible until PublishCompaction. Per-chunk merges fan out
  /// on `io_pool` when non-null. `cancel` is polled at every chunk; a fired
  /// token abandons the merge with the token's typed status and no
  /// allocation left behind except unreferenced pages reclaimed by the
  /// caller's abort path (none are allocated before all merges succeed).
  Result<Compaction> PrepareCompaction(const DeltaOverlay& overlay,
                                       IoPool* io_pool,
                                       const CancellationToken* cancel);

  /// Swaps in the compacted version (new data/meta objects, no overlay).
  /// The caller owns durability ordering and retiring the old objects.
  void PublishCompaction(const Compaction& c);

  /// True once no pinned copy or in-flight reader can still reference the
  /// storage generation `c` replaced, so its old objects may be freed.
  /// `replaced` is the generation's shared base_ref token: every Version
  /// reading the old objects (including overlay siblings pinned before the
  /// compaction) holds it, so use_count()==1 means only `c` itself does,
  /// and new references can only be minted from existing ones — the answer
  /// is stable.
  static bool CompactionRetirable(const Compaction& c) {
    return c.replaced == nullptr || c.replaced.use_count() <= 1;
  }

 private:
  struct ChunkInfo {
    uint64_t offset = 0;  // byte offset within the data object
    uint64_t bytes = 0;
    uint32_t num_valid = 0;
  };

  /// Immutable storage snapshot; swapped atomically under version_mu_.
  struct Version {
    ObjectId meta_oid = kInvalidObjectId;
    ObjectId data_oid = kInvalidObjectId;
    std::vector<ChunkInfo> directory;
    std::shared_ptr<const DeltaOverlay> overlay;  // null = none
    // Identity token of the (data_oid, meta_oid) storage generation.
    // Overlay publishes copy it; only compaction mints a new one, so its
    // use_count tells whether ANY version still reads the old objects.
    std::shared_ptr<const void> base_ref;
  };
  using VersionPtr = std::shared_ptr<const Version>;

  ChunkedArray(StorageManager* storage, ObjectId meta, ObjectId data,
               ChunkLayout layout, ArrayOptions options,
               std::vector<ChunkInfo> directory);

  VersionPtr version() const {
    std::lock_guard<std::mutex> lk(version_mu_);
    return version_;
  }
  void StoreVersion(VersionPtr v) {
    std::lock_guard<std::mutex> lk(version_mu_);
    version_ = std::move(v);
  }

  static std::string SerializeMeta(const Version& v, const ChunkLayout& layout,
                                   const ArrayOptions& options);

  /// Base bytes only, no overlay merge.
  Result<std::string> ReadBaseChunkBlobAt(const Version& v,
                                          uint64_t chunk_no) const;
  /// Base bytes plus `v`'s delta for the chunk (see ReadChunkParts).
  Result<ChunkParts> ReadChunkPartsAt(const Version& v,
                                      uint64_t chunk_no) const;

  StorageManager* storage_ = nullptr;
  ChunkLayout layout_;
  ArrayOptions options_;
  mutable std::mutex version_mu_;  // guards only the version_ pointer swap
  VersionPtr version_;
};

}  // namespace paradise
