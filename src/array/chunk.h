// Chunk: the in-memory form of one array tile — the valid cells as
// (offsetInChunk, value) pairs kept sorted by offset, exactly the order the
// paper's chunk-offset compression stores and binary-searches (§3.3). A
// chunk serializes to one of four codecs: the offset-compressed layout, a
// dense layout (all cells materialized plus a validity bitmap), an
// LZW-wrapped dense layout, or kDiffSequence (delta-encoded sorted offsets
// with bit-packed gaps, per Szépkúti). kAuto picks per chunk by measured
// serialized size with a decode-cost tiebreak.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/options.h"
#include "common/result.h"
#include "common/status.h"

namespace paradise {

/// One valid cell within a chunk.
struct ChunkEntry {
  uint32_t offset;
  int64_t value;

  friend bool operator==(const ChunkEntry& a, const ChunkEntry& b) {
    return a.offset == b.offset && a.value == b.value;
  }
};

/// Entries per block of the diff-sequence codec: every block starts at a
/// fixed32 anchor, so a reader can find the block holding an offset from
/// the anchors alone and decode only that block — the §4.2 probe walks the
/// blocks forward this way.
inline constexpr uint32_t kPackedChunkBlock = 128;

/// Concrete serialized encoding behind a ChunkView (the blob's tag byte, as
/// distinct from ChunkFormat, which also has the kAuto/kLzwDense policy
/// values that never appear as a stored tag).
enum class ChunkEncoding : uint8_t {
  kDense = 0,
  kSparse = 1,      // offset-compressed (§3.3)
  kDiffSeq = 2,     // delta-encoded offsets, bit-packed gaps
};

class Chunk {
 public:
  Chunk() = default;

  /// An empty chunk able to hold offsets in [0, capacity).
  explicit Chunk(uint32_t capacity) : capacity_(capacity) {}

  uint32_t capacity() const { return capacity_; }
  uint32_t num_valid() const { return static_cast<uint32_t>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  /// Valid cells in increasing offset order.
  const std::vector<ChunkEntry>& entries() const { return entries_; }

  /// Inserts or overwrites the cell at `offset`.
  Status Put(uint32_t offset, int64_t value);

  /// Fast build path: offsets must arrive in strictly increasing order.
  Status AppendSorted(uint32_t offset, int64_t value);

  /// Value at `offset` if the cell is valid — the binary-search probe the
  /// selection algorithm uses.
  std::optional<int64_t> Get(uint32_t offset) const;

  /// Serializes in `format` (kAuto picks the smallest encoding).
  std::string Serialize(ChunkFormat format) const;

  /// The concrete format Serialize would emit for `format`.
  ChunkFormat ResolveFormat(ChunkFormat format) const;

  /// Materializes a serialized chunk (LZW-wrapped or not), read through
  /// ChunkView; fails on a malformed blob or out-of-order cells.
  static Result<Chunk> Deserialize(std::string_view data);

  /// Exact serialized size of this chunk in `format` — the single estimator
  /// the storage benches and kAuto selection use. For every format except
  /// kLzwDense this is computed from closed-form layout arithmetic without
  /// serializing; kLzwDense compresses (its size is data-dependent).
  uint64_t SerializedBytes(ChunkFormat format) const;

  /// Closed-form sizes of the offset-compressed and dense encodings, for
  /// callers without a materialized chunk (SerializedBytes is the per-chunk
  /// API).
  static uint64_t SparseBytes(uint32_t num_valid) {
    return 9 + static_cast<uint64_t>(num_valid) * 12;
  }
  static uint64_t DenseBytes(uint32_t capacity) {
    return 5 + (static_cast<uint64_t>(capacity) + 7) / 8 +
           static_cast<uint64_t>(capacity) * 8;
  }

  bool operator==(const Chunk& o) const {
    return capacity_ == o.capacity_ && entries_ == o.entries_;
  }

 private:
  uint32_t capacity_ = 0;
  std::vector<ChunkEntry> entries_;  // sorted by offset
};

/// Decompresses an LZW-wrapped chunk blob to its dense form; passes every
/// other format through unchanged. Apply before ChunkView::Make.
Result<std::string> UnwrapChunkBlob(std::string blob);

/// Zero-copy view over a serialized chunk: probing and iteration straight
/// off the stored bytes, no materialization — the paper's selection
/// algorithm binary-searches the sorted compressed chunk as stored (§3.3).
/// The underlying buffer must outlive the view.
class ChunkView {
 public:
  /// Wraps a serialized chunk. Fails on a malformed blob.
  static Result<ChunkView> Make(std::string_view blob);

  uint32_t capacity() const { return capacity_; }
  uint32_t num_valid() const { return num_valid_; }

  /// True for every entry-indexed encoding (everything but dense): entries
  /// are addressed by index in [0, num_valid) and SparseEntry /
  /// SparseLowerBound apply. The morsel planner and kernels key on this.
  bool sparse() const { return encoding_ != ChunkEncoding::kDense; }

  /// The concrete serialized encoding behind this view.
  ChunkEncoding encoding() const { return encoding_; }

  /// Value at `offset` if valid (directory + binary search on sparse
  /// encodings, direct index on dense ones).
  std::optional<int64_t> Get(uint32_t offset) const;

  /// Sparse encodings: the i-th valid entry (i < num_valid()). O(1) for
  /// kSparse; decodes up to one block for kDiffSeq.
  ChunkEntry SparseEntry(uint32_t i) const;

  /// Sparse encodings: index of the first entry with offset >= `offset`,
  /// searching from entry `from`. A single random lookup (Get uses it):
  /// on kDiffSeq each call binary-searches the block anchors and decodes a
  /// block. A run of rising offsets, like the §4.2 probe's
  /// candidates, walks the blocks forward instead (num_blocks,
  /// BlockFirstOffset, DecodeBlock) and decodes each block at most once.
  uint32_t SparseLowerBound(uint32_t offset, uint32_t from) const;

  /// kDiffSeq: decodes block `b` — entries
  /// [b*kPackedChunkBlock, min(num_valid, (b+1)*kPackedChunkBlock)) — into
  /// `offsets`/`values` (each sized >= kPackedChunkBlock) and returns the
  /// number of entries decoded. The portable reference unpacker: ForEach
  /// reads through it, and the kernels' dispatched one
  /// (kernels::ActiveUnpackBlock) must match it.
  uint32_t DecodeBlock(uint32_t b, uint32_t* offsets, int64_t* values) const;

  /// kDiffSeq: the rest of DecodeBlock from entry `from` on —
  /// entries [from, n) of block `b`'s offsets (given offsets[from - 1];
  /// 1 <= from) or values, n being the block's entry count. DecodeBlock is
  /// offsets[0] = BlockFirstOffset(b), the offsets from 1 and the values
  /// from 0; the kernels' vector unpacker hands them the fields it leaves.
  void DecodeBlockOffsetsFrom(uint32_t b, uint32_t from, uint32_t n,
                              uint32_t* offsets) const;
  void DecodeBlockValuesFrom(uint32_t b, uint32_t from, uint32_t n,
                             int64_t* values) const;

  /// kDiffSeq: the number of blocks, ceil(num_valid / kPackedChunkBlock),
  /// and the first offset of block `b` (its anchor), read without decoding
  /// the block.
  uint32_t num_blocks() const { return num_blocks_; }
  uint32_t BlockFirstOffset(uint32_t b) const;

  /// Raw serialized regions for the batch kernels (core/kernels/), which
  /// extract whole runs of cells without per-cell accessor calls. Layouts
  /// are documented at the top of chunk.cc; only valid for the matching
  /// encoding().
  const char* SparseEntriesData() const { return data_ + 9; }
  const char* DenseBitmapData() const { return data_ + 5; }
  const char* DenseValuesData() const {
    return data_ + 5 + (static_cast<size_t>(capacity_) + 7) / 8;
  }
  /// kDiffSeq: the gap stream, which ends where the value stream starts,
  /// the value stream, which ends at PackedEnd(), and the header's field
  /// widths and value bias — what DecodeBlock reads, for the kernels' block
  /// unpackers.
  const char* PackedGapsData() const { return gaps_; }
  const char* PackedValuesData() const { return values_; }
  const char* PackedEnd() const { return end_; }
  unsigned gap_bits() const { return gap_bits_; }
  unsigned val_bits() const { return val_bits_; }
  int64_t val_min() const { return val_min_; }

  /// Invokes `fn(offset, value)` for every valid cell in offset order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    switch (encoding_) {
      case ChunkEncoding::kSparse:
        for (uint32_t i = 0; i < num_valid_; ++i) {
          const ChunkEntry e = SparseEntry(i);
          fn(e.offset, e.value);
        }
        return;
      case ChunkEncoding::kDense:
        for (uint32_t off = 0; off < capacity_; ++off) {
          if (DenseValid(off)) fn(off, DenseValue(off));
        }
        return;
      case ChunkEncoding::kDiffSeq: {
        uint32_t offsets[kPackedChunkBlock];
        int64_t values[kPackedChunkBlock];
        const uint32_t blocks =
            (num_valid_ + kPackedChunkBlock - 1) / kPackedChunkBlock;
        for (uint32_t b = 0; b < blocks; ++b) {
          const uint32_t n = DecodeBlock(b, offsets, values);
          for (uint32_t k = 0; k < n; ++k) fn(offsets[k], values[k]);
        }
        return;
      }
    }
  }

 private:
  ChunkView() = default;

  bool DenseValid(uint32_t offset) const;
  int64_t DenseValue(uint32_t offset) const;

  /// kDiffSeq: block b's entries' offsets only (no value decode) — the
  /// SparseLowerBound in-block search.
  uint32_t DecodeBlockOffsets(uint32_t b, uint32_t* offsets) const;

  /// kDiffSeq: entry i's value.
  int64_t PackedValue(uint32_t i) const;

  const char* data_ = nullptr;
  ChunkEncoding encoding_ = ChunkEncoding::kSparse;
  uint32_t capacity_ = 0;
  uint32_t num_valid_ = 0;
  // Diff-sequence header fields, cached by Make.
  uint32_t num_blocks_ = 0;
  unsigned gap_bits_ = 0;
  unsigned val_bits_ = 0;
  int64_t val_min_ = 0;
  const char* anchors_ = nullptr;  // num_blocks_ fixed32 block-first offsets
  const char* gaps_ = nullptr;     // bit-packed (in-block delta - 1) stream
  const char* values_ = nullptr;   // bit-packed (value - val_min) stream
  const char* end_ = nullptr;      // end of the value stream (= blob end)
};

}  // namespace paradise
