#include "array/chunk.h"

#include <algorithm>
#include <bit>

#include "array/bitpack.h"
#include "common/coding.h"
#include "common/lzw.h"

namespace paradise {

namespace {
// Serialized layouts. Every unwrapped blob starts with:
//   [0]     tag byte: 0 = dense, 1 = offset-compressed, 3 = diff-sequence
//           (4 is reserved: it tagged a retired bit-packed codec and now
//           reads as an unknown tag)
//   [1,5)   capacity (cell count of the chunk)
// Offset-compressed (§3.3): fixed32 valid count, then per valid cell
// fixed32 offset + fixed64 value, in increasing offset order.
// Dense: validity bitmap of ceil(capacity/8) bytes, then capacity fixed64
// values (invalid cells hold zero).
// LZW-wrapped (kLzwDense): tag byte 2 followed by the LZW stream of the
// dense serialization. Unwrapped by UnwrapChunkBlob before any view/parse.
//
// Diff-sequence (Szépkúti) has a 19-byte header:
//   [5,9)   valid count (fixed32)
//   [9]     gap bits
//   [10]    value bits (0..64)
//   [11,19) value minimum (fixed64, two's complement int64)
// then nb = ceil(count / kPackedChunkBlock) fixed32 block-first offsets
// (the anchors), then the gap stream (byte-aligned), then the value stream
// (byte-aligned): count fields of val_bits holding (value - val_min) as
// unsigned. Each block's first entry is its anchor; the remaining
// count - nb entries store (offset[i] - offset[i-1] - 1) in gap_bits bits
// each. The gap slot of the j-th entry of block b (j >= 1) is
// b*(kPackedChunkBlock-1) + j - 1. A run of adjacent cells has all-zero
// gaps, so gap_bits is 0 and clustered chunks pay nothing per offset.
constexpr uint8_t kDenseTag = 0;
constexpr uint8_t kSparseTag = 1;
constexpr uint8_t kLzwTag = 2;
constexpr uint8_t kDiffSeqTag = 3;

constexpr size_t kPackedHeaderBytes = 19;

/// Measured bit widths of one chunk's entries, shared by the diff-sequence
/// serializer and the closed-form size arithmetic.
struct PackedStats {
  uint32_t num_blocks = 0;
  unsigned gap_bits = 0;  // max width of (in-block delta - 1)
  unsigned val_bits = 0;  // width of (max value - min value)
  int64_t val_min = 0;
};

PackedStats ComputePackedStats(const std::vector<ChunkEntry>& entries) {
  PackedStats s;
  if (entries.empty()) return s;
  const size_t n = entries.size();
  s.num_blocks =
      static_cast<uint32_t>((n + kPackedChunkBlock - 1) / kPackedChunkBlock);
  int64_t lo = entries[0].value;
  int64_t hi = entries[0].value;
  for (size_t i = 0; i < n; ++i) {
    lo = std::min(lo, entries[i].value);
    hi = std::max(hi, entries[i].value);
    if (i % kPackedChunkBlock != 0) {
      // Offsets are strictly increasing, so delta >= 1 and delta - 1 packs.
      const uint32_t delta = entries[i].offset - entries[i - 1].offset;
      s.gap_bits = std::max(s.gap_bits, BitWidth(delta - 1));
    }
  }
  s.val_min = lo;
  // Two's-complement subtraction in uint64 is exact for any int64 range.
  s.val_bits =
      BitWidth(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
  return s;
}

uint64_t DiffSeqSerializedBytes(const PackedStats& s, size_t n) {
  return kPackedHeaderBytes + uint64_t{4} * s.num_blocks +
         ((n - s.num_blocks) * s.gap_bits + 7) / 8 +
         (static_cast<uint64_t>(n) * s.val_bits + 7) / 8;
}

std::string SerializeDiffSeq(uint32_t capacity,
                             const std::vector<ChunkEntry>& entries) {
  const PackedStats s = ComputePackedStats(entries);
  const size_t n = entries.size();
  std::string out(DiffSeqSerializedBytes(s, n), '\0');
  out[0] = static_cast<char>(kDiffSeqTag);
  EncodeFixed32(out.data() + 1, capacity);
  EncodeFixed32(out.data() + 5, static_cast<uint32_t>(n));
  out[9] = static_cast<char>(s.gap_bits);
  out[10] = static_cast<char>(s.val_bits);
  EncodeFixed64(out.data() + 11, static_cast<uint64_t>(s.val_min));
  char* anchors = out.data() + kPackedHeaderBytes;
  char* gaps = anchors + uint64_t{4} * s.num_blocks;
  char* values = gaps + ((n - s.num_blocks) * s.gap_bits + 7) / 8;
  for (size_t i = 0; i < n; ++i) {
    if (i % kPackedChunkBlock == 0) {
      EncodeFixed32(anchors + 4 * (i / kPackedChunkBlock), entries[i].offset);
    } else {
      const uint64_t slot = i - (i / kPackedChunkBlock + 1);
      WriteBits(gaps, slot * s.gap_bits, s.gap_bits,
                entries[i].offset - entries[i - 1].offset - 1);
    }
    WriteBits(values, static_cast<uint64_t>(i) * s.val_bits, s.val_bits,
              static_cast<uint64_t>(entries[i].value) -
                  static_cast<uint64_t>(s.val_min));
  }
  return out;
}
}  // namespace

Status Chunk::Put(uint32_t offset, int64_t value) {
  if (offset >= capacity_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " beyond chunk capacity " +
                              std::to_string(capacity_));
  }
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), offset,
      [](const ChunkEntry& e, uint32_t o) { return e.offset < o; });
  if (it != entries_.end() && it->offset == offset) {
    it->value = value;
  } else {
    entries_.insert(it, ChunkEntry{offset, value});
  }
  return Status::OK();
}

Status Chunk::AppendSorted(uint32_t offset, int64_t value) {
  if (offset >= capacity_) {
    return Status::OutOfRange("offset " + std::to_string(offset) +
                              " beyond chunk capacity " +
                              std::to_string(capacity_));
  }
  if (!entries_.empty() && entries_.back().offset >= offset) {
    return Status::InvalidArgument(
        "AppendSorted offsets must be strictly increasing");
  }
  entries_.push_back(ChunkEntry{offset, value});
  return Status::OK();
}

std::optional<int64_t> Chunk::Get(uint32_t offset) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), offset,
      [](const ChunkEntry& e, uint32_t o) { return e.offset < o; });
  if (it != entries_.end() && it->offset == offset) return it->value;
  return std::nullopt;
}

uint64_t Chunk::SerializedBytes(ChunkFormat format) const {
  switch (format) {
    case ChunkFormat::kDense:
      return DenseBytes(capacity_);
    case ChunkFormat::kOffsetCompressed:
      return SparseBytes(num_valid());
    case ChunkFormat::kDiffSequence:
      return DiffSeqSerializedBytes(ComputePackedStats(entries_),
                                    entries_.size());
    case ChunkFormat::kAuto:
      return SerializedBytes(ResolveFormat(ChunkFormat::kAuto));
    case ChunkFormat::kLzwDense:
      // Data-dependent: the only format without a closed form.
      return Serialize(ChunkFormat::kLzwDense).size();
  }
  return 0;
}

ChunkFormat Chunk::ResolveFormat(ChunkFormat format) const {
  if (format != ChunkFormat::kAuto) return format;
  // Candidates in decode-cost order — a costlier-to-decode format must be
  // STRICTLY smaller to win. This keeps the sparse-vs-dense tie resolving
  // to offset-compressed, and either of them over diff-sequence (block
  // decode) at equal size.
  ChunkFormat best = ChunkFormat::kOffsetCompressed;
  uint64_t best_bytes = SerializedBytes(best);
  auto consider = [&](ChunkFormat f) {
    const uint64_t bytes = SerializedBytes(f);
    if (bytes < best_bytes) {
      best = f;
      best_bytes = bytes;
    }
  };
  consider(ChunkFormat::kDense);
  consider(ChunkFormat::kDiffSequence);
  return best;
}

std::string Chunk::Serialize(ChunkFormat format) const {
  if (format == ChunkFormat::kLzwDense) {
    std::string out(1, static_cast<char>(kLzwTag));
    out.append(LzwCompress(Serialize(ChunkFormat::kDense)));
    return out;
  }
  const ChunkFormat resolved = ResolveFormat(format);
  if (resolved == ChunkFormat::kDiffSequence) {
    return SerializeDiffSeq(capacity_, entries_);
  }
  std::string out;
  if (resolved == ChunkFormat::kOffsetCompressed) {
    out.resize(9 + entries_.size() * 12);
    out[0] = static_cast<char>(kSparseTag);
    EncodeFixed32(out.data() + 1, capacity_);
    EncodeFixed32(out.data() + 5, static_cast<uint32_t>(entries_.size()));
    char* p = out.data() + 9;
    for (const ChunkEntry& e : entries_) {
      EncodeFixed32(p, e.offset);
      EncodeFixed64(p + 4, static_cast<uint64_t>(e.value));
      p += 12;
    }
    return out;
  }
  const size_t bitmap_bytes = (capacity_ + 7) / 8;
  out.assign(5 + bitmap_bytes + static_cast<size_t>(capacity_) * 8, '\0');
  out[0] = static_cast<char>(kDenseTag);
  EncodeFixed32(out.data() + 1, capacity_);
  char* bitmap = out.data() + 5;
  char* values = out.data() + 5 + bitmap_bytes;
  for (const ChunkEntry& e : entries_) {
    bitmap[e.offset / 8] |= static_cast<char>(1u << (e.offset % 8));
    EncodeFixed64(values + static_cast<size_t>(e.offset) * 8,
                  static_cast<uint64_t>(e.value));
  }
  return out;
}

Result<std::string> UnwrapChunkBlob(std::string blob) {
  if (!blob.empty() && static_cast<uint8_t>(blob[0]) == kLzwTag) {
    return LzwDecompress({blob.data() + 1, blob.size() - 1});
  }
  return blob;
}

Result<Chunk> Chunk::Deserialize(std::string_view data) {
  // Decode through the view so each layout has exactly one reader;
  // AppendSorted re-validates strict offset order and capacity bounds cell
  // by cell, which is the deep check dbverify relies on.
  PARADISE_ASSIGN_OR_RETURN(std::string plain,
                            UnwrapChunkBlob(std::string(data)));
  PARADISE_ASSIGN_OR_RETURN(ChunkView view, ChunkView::Make(plain));
  Chunk chunk(view.capacity());
  chunk.entries_.reserve(view.num_valid());
  Status st = Status::OK();
  view.ForEach([&](uint32_t offset, int64_t value) {
    if (st.ok()) st = chunk.AppendSorted(offset, value);
  });
  PARADISE_RETURN_IF_ERROR(st);
  return chunk;
}

Result<ChunkView> ChunkView::Make(std::string_view blob) {
  if (blob.size() < 5) return Status::Corruption("chunk blob too small");
  const uint8_t tag = static_cast<uint8_t>(blob[0]);
  const uint32_t capacity = DecodeFixed32(blob.data() + 1);
  ChunkView view;
  view.data_ = blob.data();
  view.capacity_ = capacity;
  if (tag == kSparseTag) {
    if (blob.size() < 9) return Status::Corruption("sparse chunk truncated");
    const uint32_t count = DecodeFixed32(blob.data() + 5);
    if (blob.size() != 9 + static_cast<size_t>(count) * 12) {
      return Status::Corruption("sparse chunk size mismatch");
    }
    view.encoding_ = ChunkEncoding::kSparse;
    view.num_valid_ = count;
    return view;
  }
  if (tag == kDenseTag) {
    const size_t bitmap_bytes = (static_cast<size_t>(capacity) + 7) / 8;
    if (blob.size() != 5 + bitmap_bytes + static_cast<size_t>(capacity) * 8) {
      return Status::Corruption("dense chunk size mismatch");
    }
    // Valid count is not stored in the dense format; count the bitmap.
    uint32_t valid = 0;
    for (size_t i = 0; i < bitmap_bytes; ++i) {
      valid += static_cast<uint32_t>(
          std::popcount(static_cast<unsigned char>(blob[5 + i])));
    }
    view.encoding_ = ChunkEncoding::kDense;
    view.num_valid_ = valid;
    return view;
  }
  if (tag == kDiffSeqTag) {
    if (blob.size() < kPackedHeaderBytes) {
      return Status::Corruption("diff-sequence chunk truncated");
    }
    const uint32_t count = DecodeFixed32(blob.data() + 5);
    const unsigned gap_bits = static_cast<uint8_t>(blob[9]);
    const unsigned val_bits = static_cast<uint8_t>(blob[10]);
    if (count > capacity) {
      return Status::Corruption("diff-sequence chunk count " +
                                std::to_string(count) + " exceeds capacity " +
                                std::to_string(capacity));
    }
    if (gap_bits > 32 || val_bits > 64) {
      return Status::Corruption("diff-sequence chunk field width out of range");
    }
    const uint64_t nb = (count + kPackedChunkBlock - 1) / kPackedChunkBlock;
    const uint64_t fields1 = count - nb;
    const uint64_t expected = kPackedHeaderBytes + 4 * nb +
                              (fields1 * gap_bits + 7) / 8 +
                              (static_cast<uint64_t>(count) * val_bits + 7) / 8;
    if (blob.size() != expected) {
      return Status::Corruption("diff-sequence chunk size mismatch");
    }
    view.encoding_ = ChunkEncoding::kDiffSeq;
    view.num_valid_ = count;
    view.num_blocks_ = static_cast<uint32_t>(nb);
    view.gap_bits_ = gap_bits;
    view.val_bits_ = val_bits;
    view.val_min_ = static_cast<int64_t>(DecodeFixed64(blob.data() + 11));
    view.anchors_ = blob.data() + kPackedHeaderBytes;
    view.gaps_ = view.anchors_ + 4 * nb;
    view.values_ = view.gaps_ + (fields1 * gap_bits + 7) / 8;
    view.end_ = blob.data() + blob.size();
    return view;
  }
  return Status::Corruption("unknown chunk format tag " + std::to_string(tag));
}

uint32_t ChunkView::BlockFirstOffset(uint32_t b) const {
  return DecodeFixed32(anchors_ + static_cast<size_t>(b) * 4);
}

int64_t ChunkView::PackedValue(uint32_t i) const {
  uint64_t field = 0;
  UnpackBits(values_, end_, i, val_bits_, 1, &field);
  return static_cast<int64_t>(static_cast<uint64_t>(val_min_) + field);
}

uint32_t ChunkView::DecodeBlockOffsets(uint32_t b, uint32_t* offsets) const {
  const uint32_t start = b * kPackedChunkBlock;
  const uint32_t n = std::min(kPackedChunkBlock, num_valid_ - start);
  offsets[0] = BlockFirstOffset(b);
  DecodeBlockOffsetsFrom(b, 1, n, offsets);
  return n;
}

void ChunkView::DecodeBlockOffsetsFrom(uint32_t b, uint32_t from, uint32_t n,
                                       uint32_t* offsets) const {
  if (from >= n) return;
  // Unpack the gaps of entries [from, n) — entry j >= 1 of block b has gap
  // slot b * (kPackedChunkBlock - 1) + j - 1 — then prefix-sum them onto
  // offsets[from - 1].
  UnpackBits(gaps_, values_,
             uint64_t{b} * (kPackedChunkBlock - 1) + from - 1, gap_bits_,
             n - from, offsets + from);
  for (uint32_t k = from; k < n; ++k) offsets[k] += offsets[k - 1] + 1;
}

void ChunkView::DecodeBlockValuesFrom(uint32_t b, uint32_t from, uint32_t n,
                                      int64_t* values) const {
  if (from >= n) return;
  UnpackBits(values_, end_, uint64_t{b} * kPackedChunkBlock + from, val_bits_,
             n - from, values + from);
  // Two's-complement bias add in uint64, as in PackedValue.
  const uint64_t bias = static_cast<uint64_t>(val_min_);
  for (uint32_t k = from; k < n; ++k) {
    values[k] = static_cast<int64_t>(static_cast<uint64_t>(values[k]) + bias);
  }
}

uint32_t ChunkView::DecodeBlock(uint32_t b, uint32_t* offsets,
                                int64_t* values) const {
  const uint32_t n = DecodeBlockOffsets(b, offsets);
  DecodeBlockValuesFrom(b, 0, n, values);
  return n;
}

ChunkEntry ChunkView::SparseEntry(uint32_t i) const {
  switch (encoding_) {
    case ChunkEncoding::kSparse: {
      const char* p = data_ + 9 + static_cast<size_t>(i) * 12;
      return ChunkEntry{DecodeFixed32(p),
                        static_cast<int64_t>(DecodeFixed64(p + 4))};
    }
    case ChunkEncoding::kDiffSeq: {
      // Prefix-sum the j gaps before entry i onto its block's anchor.
      const uint32_t b = i / kPackedChunkBlock;
      const uint32_t j = i % kPackedChunkBlock;
      uint32_t gaps[kPackedChunkBlock];
      UnpackBits(gaps_, values_, uint64_t{b} * (kPackedChunkBlock - 1),
                 gap_bits_, j, gaps);
      uint32_t off = BlockFirstOffset(b);
      for (uint32_t k = 0; k < j; ++k) off += 1 + gaps[k];
      return ChunkEntry{off, PackedValue(i)};
    }
    case ChunkEncoding::kDense:
      break;
  }
  return ChunkEntry{0, 0};
}

uint32_t ChunkView::SparseLowerBound(uint32_t offset, uint32_t from) const {
  if (encoding_ == ChunkEncoding::kSparse) {
    uint32_t lo = from, hi = num_valid_;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (SparseEntry(mid).offset < offset) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  // Packed: binary-search the per-block directory for the last block whose
  // first offset is < `offset`, then search inside that one block. Entries
  // are globally sorted, so the lower bound over all entries clamped up to
  // `from` equals the lower bound over [from, num_valid).
  uint32_t blo = 0, bhi = num_blocks_;
  while (blo < bhi) {
    const uint32_t mid = blo + (bhi - blo) / 2;
    if (BlockFirstOffset(mid) < offset) {
      blo = mid + 1;
    } else {
      bhi = mid;
    }
  }
  uint32_t result = 0;
  if (blo > 0) {
    const uint32_t b = blo - 1;
    uint32_t offsets[kPackedChunkBlock];
    const uint32_t n = DecodeBlockOffsets(b, offsets);
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (offsets[mid] < offset) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    result = b * kPackedChunkBlock + lo;
  }
  return std::max(result, from);
}

bool ChunkView::DenseValid(uint32_t offset) const {
  return (static_cast<uint8_t>(data_[5 + offset / 8]) >> (offset % 8)) & 1;
}

int64_t ChunkView::DenseValue(uint32_t offset) const {
  const size_t bitmap_bytes = (static_cast<size_t>(capacity_) + 7) / 8;
  return static_cast<int64_t>(DecodeFixed64(
      data_ + 5 + bitmap_bytes + static_cast<size_t>(offset) * 8));
}

std::optional<int64_t> ChunkView::Get(uint32_t offset) const {
  if (offset >= capacity_) return std::nullopt;
  if (sparse()) {
    const uint32_t pos = SparseLowerBound(offset, 0);
    if (pos < num_valid_) {
      const ChunkEntry e = SparseEntry(pos);
      if (e.offset == offset) return e.value;
    }
    return std::nullopt;
  }
  if (!DenseValid(offset)) return std::nullopt;
  return DenseValue(offset);
}

}  // namespace paradise
