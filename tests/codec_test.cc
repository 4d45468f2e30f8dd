// Codec conformance harness: every chunk format must be an invisible
// storage detail. Each adversarial chunk round-trips through every
// ChunkFormat, and ChunkView probing (Get), iteration (ForEach), monotone
// lower-bound walks, and the batch aggregation kernels must produce results
// cell-for-cell identical to the kOffsetCompressed baseline. A seeded fuzz
// mode sweeps random shapes, and checked-in golden byte fixtures pin the
// serialized layouts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "array/bitpack.h"
#include "array/chunk.h"
#include "array/chunk_layout.h"
#include "array/chunked_array.h"
#include "common/options.h"
#include "common/random.h"
#include "core/kernels/consolidate_kernel.h"
#include "query/result.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::TempFile;

// All policy-level formats a caller can request.
const std::vector<ChunkFormat> kAllFormats = {
    ChunkFormat::kDense,        ChunkFormat::kOffsetCompressed,
    ChunkFormat::kAuto,         ChunkFormat::kLzwDense,
    ChunkFormat::kDiffSequence,
};

// The concrete (storable) formats used for golden fixtures — kAuto and
// kLzwDense-as-policy resolve to these or to the LZW wrapping of kDense.
const std::vector<ChunkFormat> kConcreteFormats = {
    ChunkFormat::kDense,        ChunkFormat::kOffsetCompressed,
    ChunkFormat::kLzwDense,     ChunkFormat::kDiffSequence,
};

std::string FormatTag(ChunkFormat f) {
  switch (f) {
    case ChunkFormat::kDense: return "dense";
    case ChunkFormat::kOffsetCompressed: return "offset";
    case ChunkFormat::kAuto: return "auto";
    case ChunkFormat::kLzwDense: return "lzw";
    case ChunkFormat::kDiffSequence: return "diffseq";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Adversarial chunk battery.

struct NamedChunk {
  std::string name;
  Chunk chunk;
};

Chunk MakeChunk(uint32_t capacity,
                const std::vector<ChunkEntry>& entries) {
  Chunk chunk(capacity);
  for (const ChunkEntry& e : entries) {
    EXPECT_OK(chunk.AppendSorted(e.offset, e.value));
  }
  return chunk;
}

std::vector<NamedChunk> AdversarialChunks() {
  std::vector<NamedChunk> cases;
  cases.push_back({"empty", Chunk(100)});
  cases.push_back({"single_at_zero", MakeChunk(100, {{0, 42}})});
  cases.push_back({"single_cell_cap1", MakeChunk(1, {{0, -7}})});
  cases.push_back({"single_at_max_offset", MakeChunk(100, {{99, 1234567}})});
  {
    // Every cell valid: the dense encoding's home turf; diff-sequence must
    // still reproduce it (its gap bits collapse to zero).
    Chunk full(64);
    for (uint32_t i = 0; i < 64; ++i) {
      EXPECT_OK(full.AppendSorted(i, static_cast<int64_t>(i) * 3 - 50));
    }
    cases.push_back({"full_dense", std::move(full)});
  }
  {
    // Clustered runs: stretches of consecutive offsets separated by long
    // gaps — the shape difference-sequence compression is built for, and
    // the one that stresses the per-block anchors (a run can straddle a
    // block boundary).
    Chunk clustered(4096);
    uint32_t off = 5;
    int64_t v = -1000;
    while (off + 40 < 4096) {
      for (uint32_t i = 0; i < 37; ++i) {
        EXPECT_OK(clustered.AppendSorted(off + i, v++));
      }
      off += 37 + 300;
    }
    cases.push_back({"clustered_runs", std::move(clustered)});
  }
  {
    // Uniform sparse: constant stride, so every diffseq gap packs to the
    // same width; exercises multi-block directories (585 entries).
    Chunk uniform(4096);
    for (uint32_t off = 0; off < 4096; off += 7) {
      EXPECT_OK(uniform.AppendSorted(off, static_cast<int64_t>(off) * 11));
    }
    cases.push_back({"uniform_sparse", std::move(uniform)});
  }
  {
    // Max widths: 65536-capacity chunk whose offsets need the full 16 bits
    // and whose values span INT64_MIN..INT64_MAX, forcing val_bits = 64 and
    // exercising the two's-complement-safe min/max subtraction.
    Chunk wide(65536);
    EXPECT_OK(wide.AppendSorted(0, std::numeric_limits<int64_t>::min()));
    EXPECT_OK(wide.AppendSorted(1, 0));
    EXPECT_OK(wide.AppendSorted(32768, -1));
    EXPECT_OK(wide.AppendSorted(65535, std::numeric_limits<int64_t>::max()));
    cases.push_back({"max_width", std::move(wide)});
  }
  {
    // All-equal values pack to val_bits = 0: the value stream vanishes.
    Chunk constant(512);
    for (uint32_t off = 3; off < 512; off += 5) {
      EXPECT_OK(constant.AppendSorted(off, -123456789));
    }
    cases.push_back({"constant_values", std::move(constant)});
  }
  {
    // Exactly one full block plus one overflow entry: the directory's
    // smallest multi-block shape.
    Chunk edge(2048);
    for (uint32_t i = 0; i < kPackedChunkBlock + 1; ++i) {
      EXPECT_OK(edge.AppendSorted(i * 3, static_cast<int64_t>(i) - 64));
    }
    cases.push_back({"block_boundary", std::move(edge)});
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Conformance checks: every format against the kOffsetCompressed baseline.

ChunkView MustView(const std::string& blob) {
  Result<std::string> unwrapped = UnwrapChunkBlob(blob);
  if (!unwrapped.ok()) {
    ADD_FAILURE() << "unwrap failed: " << unwrapped.status().ToString();
    std::abort();
  }
  // Views borrow the buffer; stash it for the test's lifetime (a deque so
  // growth never relocates earlier blobs out from under live views).
  static std::deque<std::string>* arena = new std::deque<std::string>();
  arena->push_back(std::move(unwrapped).value());
  Result<ChunkView> view = ChunkView::Make(arena->back());
  if (!view.ok()) {
    ADD_FAILURE() << "view rejected: " << view.status().ToString();
    std::abort();
  }
  return *view;
}

// Aggregates `view` as a 1-D chunk grouped into `groups` buckets
// (offset % groups) via the batch kernels, plus a split at an arbitrary
// morsel boundary to exercise partial-block slicing in the packed decode.
std::vector<query::AggState> KernelAggregate(const ChunkView& view,
                                             uint32_t groups) {
  kernels::KernelTables tables;
  std::vector<uint64_t> contribution(view.capacity());
  for (uint32_t i = 0; i < view.capacity(); ++i) contribution[i] = i % groups;
  tables.BuildRaw({view.capacity()}, {{0, contribution}});
  std::vector<query::AggState> flat(groups);
  kernels::AggregateView(view, tables, flat.data());

  // The same range split into three uneven morsels must agree.
  std::vector<query::AggState> split(groups);
  const uint32_t total = kernels::PositionCount(view);
  const uint32_t a = total / 3, b = total - total / 5;
  uint64_t cells = 0;
  cells += kernels::AggregateRange(view, 0, a, tables, split.data());
  cells += kernels::AggregateRange(view, a, b, tables, split.data());
  cells += kernels::AggregateRange(view, b, total, tables, split.data());
  EXPECT_EQ(cells, view.num_valid());
  for (uint32_t g = 0; g < groups; ++g) {
    EXPECT_EQ(flat[g].sum, split[g].sum) << "morsel split diverges, group "
                                         << g;
    EXPECT_EQ(flat[g].count, split[g].count);
    EXPECT_EQ(flat[g].min, split[g].min);
    EXPECT_EQ(flat[g].max, split[g].max);
  }
  return flat;
}

std::vector<ChunkEntry> Collect(const ChunkView& view) {
  std::vector<ChunkEntry> out;
  view.ForEach([&](uint32_t off, int64_t v) { out.push_back({off, v}); });
  return out;
}

// `probe_all`: sweep Get over every offset (quadratic-ish on huge chunks, so
// the fuzz loop samples instead for big capacities).
void CheckChunkAcrossFormats(const Chunk& chunk, bool probe_all = true) {
  const std::string baseline_blob =
      chunk.Serialize(ChunkFormat::kOffsetCompressed);
  const ChunkView baseline = MustView(baseline_blob);
  ASSERT_EQ(baseline.num_valid(), chunk.num_valid());
  const std::vector<ChunkEntry> expect = Collect(baseline);
  ASSERT_EQ(expect.size(), chunk.entries().size());
  const std::vector<query::AggState> expect_agg =
      chunk.capacity() > 0 ? KernelAggregate(baseline, 16)
                           : std::vector<query::AggState>();

  for (ChunkFormat fmt : kAllFormats) {
    SCOPED_TRACE("format " + FormatTag(fmt));
    const std::string blob = chunk.Serialize(fmt);
    // The single size estimator callers rely on must be exact.
    EXPECT_EQ(blob.size(), chunk.SerializedBytes(fmt));

    const ChunkView view = MustView(blob);
    ASSERT_EQ(view.capacity(), chunk.capacity());
    ASSERT_EQ(view.num_valid(), chunk.num_valid());

    // Iteration: cell-for-cell identical, in offset order.
    const std::vector<ChunkEntry> got = Collect(view);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].offset, expect[i].offset) << "entry " << i;
      EXPECT_EQ(got[i].value, expect[i].value) << "entry " << i;
    }

    // Probing: every offset answers exactly as the baseline does.
    if (probe_all) {
      for (uint32_t off = 0; off < chunk.capacity(); ++off) {
        EXPECT_EQ(view.Get(off), baseline.Get(off)) << "offset " << off;
      }
    } else {
      for (const ChunkEntry& e : chunk.entries()) {
        EXPECT_EQ(view.Get(e.offset), std::optional<int64_t>(e.value));
        if (e.offset + 1 < chunk.capacity()) {
          EXPECT_EQ(view.Get(e.offset + 1), baseline.Get(e.offset + 1));
        }
      }
    }
    EXPECT_FALSE(view.Get(chunk.capacity()).has_value());

    // Sparse encodings: a monotone lower-bound walk — SparseLowerBound
    // fed its own previous result must visit every entry in order, and
    // SparseEntry(i) must match. (The §4.2 probe's forward block cursor
    // is tested in kernel_test, KernelProbeCursor.)
    if (view.sparse()) {
      uint32_t pos = 0;
      for (size_t i = 0; i < expect.size(); ++i) {
        pos = view.SparseLowerBound(expect[i].offset, pos);
        ASSERT_EQ(pos, i) << "lower bound walked off course";
        const ChunkEntry e = view.SparseEntry(pos);
        EXPECT_EQ(e.offset, expect[i].offset);
        EXPECT_EQ(e.value, expect[i].value);
      }
      EXPECT_EQ(view.SparseLowerBound(chunk.capacity(), 0),
                chunk.num_valid());
    }

    // Batch kernels: grouped aggregation byte-identical across formats,
    // whole-chunk and morsel-split.
    if (chunk.capacity() > 0) {
      const std::vector<query::AggState> agg = KernelAggregate(view, 16);
      for (size_t g = 0; g < agg.size(); ++g) {
        EXPECT_EQ(agg[g].sum, expect_agg[g].sum) << "group " << g;
        EXPECT_EQ(agg[g].count, expect_agg[g].count) << "group " << g;
        EXPECT_EQ(agg[g].min, expect_agg[g].min) << "group " << g;
        EXPECT_EQ(agg[g].max, expect_agg[g].max) << "group " << g;
      }
    }

    // Full materializing round-trip.
    Result<Chunk> back = Chunk::Deserialize(blob);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == chunk);
  }
}

TEST(CodecConformanceTest, AdversarialChunksAgreeAcrossAllFormats) {
  for (NamedChunk& c : AdversarialChunks()) {
    SCOPED_TRACE("case " + c.name);
    CheckChunkAcrossFormats(c.chunk);
  }
}

TEST(CodecConformanceTest, AutoResolvesToTheSmallestConcreteFormat) {
  for (NamedChunk& c : AdversarialChunks()) {
    SCOPED_TRACE("case " + c.name);
    const ChunkFormat picked = c.chunk.ResolveFormat(ChunkFormat::kAuto);
    EXPECT_NE(picked, ChunkFormat::kAuto);
    const uint64_t picked_bytes = c.chunk.SerializedBytes(picked);
    for (ChunkFormat fmt :
         {ChunkFormat::kDense, ChunkFormat::kOffsetCompressed,
          ChunkFormat::kDiffSequence}) {
      EXPECT_LE(picked_bytes, c.chunk.SerializedBytes(fmt))
          << "kAuto picked " << FormatTag(picked) << " but "
          << FormatTag(fmt) << " is smaller";
    }
  }
  // Two cells whose last offset is <= 127: the shape where the retired
  // bit-packed codec tied diff-sequence at 25 bytes and won the tie. It now
  // resolves to diff-sequence at the same length, so no stored chunk grew.
  const Chunk tie = MakeChunk(4096, {{0, 7}, {3, -7}});
  EXPECT_EQ(tie.ResolveFormat(ChunkFormat::kAuto), ChunkFormat::kDiffSequence);
  EXPECT_EQ(tie.SerializedBytes(ChunkFormat::kAuto), 25u);
}

TEST(CodecConformanceTest, PackedFormatsRejectTruncationAndBadHeaders) {
  Chunk chunk = MakeChunk(4096, {});
  for (uint32_t off = 0; off < 4096; off += 9) {
    ASSERT_OK(chunk.AppendSorted(off, static_cast<int64_t>(off)));
  }
  const std::string blob = chunk.Serialize(ChunkFormat::kDiffSequence);
  // Every proper prefix must be rejected cleanly, never read past the end
  // or crash — dbverify feeds exactly these bytes through here.
  for (size_t len : {size_t{0}, size_t{1}, size_t{10}, size_t{18},
                     size_t{19}, blob.size() / 2, blob.size() - 1}) {
    Result<ChunkView> view = ChunkView::Make(blob.substr(0, len));
    EXPECT_FALSE(view.ok()) << "prefix of " << len << " bytes accepted";
  }
  // Count beyond capacity (count is the fixed32 at bytes [5, 9)).
  std::string bad = blob;
  bad[5] = static_cast<char>(0xff);
  bad[6] = static_cast<char>(0xff);
  EXPECT_FALSE(ChunkView::Make(bad).ok());
  EXPECT_FALSE(Chunk::Deserialize(bad).ok());
  // Absurd field widths.
  bad = blob;
  bad[9] = static_cast<char>(64);
  EXPECT_FALSE(ChunkView::Make(bad).ok());
  // An unknown tag byte is a typed rejection — including 4, the retired
  // bit-packed codec's tag.
  for (const char tag : {char{4}, char{0x7f}}) {
    SCOPED_TRACE("tag " + std::to_string(tag));
    bad = blob;
    bad[0] = tag;
    Result<ChunkView> view = ChunkView::Make(bad);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
    EXPECT_NE(view.status().ToString().find("unknown chunk format tag"),
              std::string::npos);
    const Status st = Chunk::Deserialize(bad).status();
    EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Block unpacker: UnpackBits must agree field for field with ReadBits and
// never read past its stream. Buffers are exact-size heap allocations, so a
// sanitizer build flags any byte read past the end.

TEST(CodecUnpackTest, MatchesReadBitsForEveryWidthStartAndCount) {
  Random rng(0xB17Bull);
  for (unsigned w = 0; w <= 64; ++w) {
    for (uint64_t first : {0u, 1u, 127u, 128u, 129u}) {
      for (uint32_t n : {0u, 1u, 7u, 128u}) {
        SCOPED_TRACE("width " + std::to_string(w) + " first " +
                     std::to_string(first) + " n " + std::to_string(n));
        const size_t bytes = static_cast<size_t>(((first + n) * w + 7) / 8);
        std::unique_ptr<char[]> buf(new char[bytes]);
        for (size_t i = 0; i < bytes; ++i) {
          buf[i] = static_cast<char>(rng.Next());
        }
        uint64_t out[128];
        UnpackBits(buf.get(), buf.get() + bytes, first, w, n, out);
        for (uint32_t k = 0; k < n; ++k) {
          ASSERT_EQ(out[k], ReadBits(buf.get(), (first + k) * w, w))
              << "field " << first + k;
        }
        if (w <= 32) {
          // The offset streams unpack into uint32_t.
          uint32_t out32[128];
          UnpackBits(buf.get(), buf.get() + bytes, first, w, n, out32);
          for (uint32_t k = 0; k < n; ++k) ASSERT_EQ(out32[k], out[k]);
        }
      }
    }
  }
}

// Decodes `chunk` as diff-sequence from an exact-size copy of its blob
// through every packed-view reader and checks each against the chunk's
// entries.
void CheckPackedDecodeInBounds(const Chunk& chunk) {
  const std::string blob = chunk.Serialize(ChunkFormat::kDiffSequence);
  std::unique_ptr<char[]> buf(new char[blob.size()]);
  std::memcpy(buf.get(), blob.data(), blob.size());
  ASSERT_OK_AND_ASSIGN(ChunkView view,
                       ChunkView::Make(std::string_view(buf.get(),
                                                        blob.size())));
  const std::vector<ChunkEntry>& entries = chunk.entries();
  ASSERT_EQ(view.num_valid(), entries.size());
  uint32_t offsets[kPackedChunkBlock];
  int64_t values[kPackedChunkBlock];
  const uint32_t blocks =
      (view.num_valid() + kPackedChunkBlock - 1) / kPackedChunkBlock;
  for (uint32_t b = 0; b < blocks; ++b) {
    const uint32_t n = view.DecodeBlock(b, offsets, values);
    for (uint32_t k = 0; k < n; ++k) {
      ASSERT_EQ(offsets[k], entries[b * kPackedChunkBlock + k].offset);
      ASSERT_EQ(values[k], entries[b * kPackedChunkBlock + k].value);
    }
  }
  for (uint32_t i = 0; i < view.num_valid(); ++i) {
    ASSERT_EQ(view.SparseEntry(i), entries[i]) << "entry " << i;
    ASSERT_EQ(view.SparseLowerBound(entries[i].offset, 0), i);
  }
  ASSERT_OK_AND_ASSIGN(Chunk back,
                       Chunk::Deserialize(std::string_view(buf.get(),
                                                           blob.size())));
  EXPECT_TRUE(back == chunk);
}

TEST(CodecUnpackTest, LastFieldOnTheBlobsFinalByteDecodesInBounds) {
  Random rng(0x7A11ull);
  // 136 entries: two blocks, and 136 * w bits is a whole number of bytes for
  // every w, so the last value field ends exactly on the blob's final byte.
  constexpr uint32_t kCount = 136;
  for (unsigned w = 0; w <= 64; ++w) {
    SCOPED_TRACE("value width " + std::to_string(w));
    Chunk chunk(4096);
    const int64_t lo = w == 64 ? std::numeric_limits<int64_t>::min() : -5;
    const uint64_t span = BitMask(w);
    uint32_t k = 0;
    for (uint64_t off : SampleSortedDistinct(4096, kCount, &rng)) {
      // The first entry pins the minimum and the last the maximum, so the
      // value stream is exactly w bits wide.
      const uint64_t delta = k == 0           ? 0
                             : k == kCount - 1 ? span
                                               : rng.Next() & span;
      ASSERT_OK(chunk.AppendSorted(
          static_cast<uint32_t>(off),
          static_cast<int64_t>(static_cast<uint64_t>(lo) + delta)));
      ++k;
    }
    CheckPackedDecodeInBounds(chunk);
  }
  // Constant values (zero value bits): the gap stream ends the blob, so its
  // own tail takes the fallback. Sweep every offset width.
  for (unsigned w = 1; w <= 31; ++w) {
    SCOPED_TRACE("offset width " + std::to_string(w));
    const uint32_t capacity = uint32_t{1} << w;
    Chunk chunk(capacity);
    const uint64_t count = std::min<uint64_t>(kCount, capacity);
    std::set<uint64_t> offs = {capacity - 1};  // the widest offset
    while (offs.size() < count) offs.insert(rng.Uniform(capacity));
    for (uint64_t off : offs) {
      ASSERT_OK(chunk.AppendSorted(static_cast<uint32_t>(off), 7));
    }
    CheckPackedDecodeInBounds(chunk);
  }
}

// ---------------------------------------------------------------------------
// Fuzz mode: seeded random shapes, replayable via PARADISE_CODEC_SEED.

TEST(CodecFuzzTest, RandomChunksAgreeAcrossAllFormats) {
  uint64_t seed = 0xC0DECull;
  if (const char* env = std::getenv("PARADISE_CODEC_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 0);
  }
  Random rng(seed);
  SCOPED_TRACE("replay with PARADISE_CODEC_SEED=" + std::to_string(seed));
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    const uint32_t capacity =
        static_cast<uint32_t>(1 + rng.Uniform(iter % 3 == 0 ? 65536 : 2048));
    const double density = rng.NextDouble();
    uint64_t valid = static_cast<uint64_t>(density * capacity);
    if (valid > capacity) valid = capacity;
    Chunk chunk(capacity);
    // Three value regimes: narrow (tiny val_bits), full-range 64-bit, and
    // offset-correlated (compresses under every codec differently).
    const int regime = static_cast<int>(rng.Uniform(3));
    for (uint64_t off : SampleSortedDistinct(capacity, valid, &rng)) {
      int64_t v;
      switch (regime) {
        case 0: v = rng.UniformRange(-50, 50); break;
        case 1: v = static_cast<int64_t>(rng.Next()); break;
        default: v = static_cast<int64_t>(off) * 1000 - 7; break;
      }
      ASSERT_OK(chunk.AppendSorted(static_cast<uint32_t>(off), v));
    }
    CheckChunkAcrossFormats(chunk, /*probe_all=*/capacity <= 2048);
    // The kernels' dispatched block unpacker.
    const paradise::testing::ExactBlob blob(
        chunk.Serialize(ChunkFormat::kDiffSequence));
    ASSERT_OK_AND_ASSIGN(const ChunkView view, ChunkView::Make(blob.view()));
    paradise::testing::ExpectUnpackMatchesDecodeBlock(view);
    if (HasFailure()) break;
  }
}

// ---------------------------------------------------------------------------
// Golden byte fixtures: the serialized layouts are an on-disk contract.
// Regenerate with PARADISE_UPDATE_GOLDEN=1 after a deliberate format bump
// (which also requires a storage format-version bump).

std::string HexEncode(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2 + bytes.size() / 32 + 1);
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (i > 0 && i % 32 == 0) out.push_back('\n');
    const uint8_t b = static_cast<uint8_t>(bytes[i]);
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  out.push_back('\n');
  return out;
}

Result<std::string> HexDecode(const std::string& text) {
  std::string out;
  int hi = -1;
  for (char c : text) {
    int nibble;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c == '\n' || c == '\r' || c == ' ') continue;
    else return Status::InvalidArgument("bad hex character");
    if (hi < 0) {
      hi = nibble;
    } else {
      out.push_back(static_cast<char>((hi << 4) | nibble));
      hi = -1;
    }
  }
  if (hi >= 0) return Status::InvalidArgument("odd hex length");
  return out;
}

std::vector<NamedChunk> GoldenChunks() {
  std::vector<NamedChunk> cases;
  cases.push_back(
      {"small_sparse", MakeChunk(60, {{2, -5}, {7, 0}, {11, 900}, {59, 42}})});
  {
    Chunk dense(16);
    for (uint32_t i = 0; i < 16; ++i) {
      EXPECT_OK(dense.AppendSorted(i, static_cast<int64_t>(i * i) - 8));
    }
    cases.push_back({"full_16", std::move(dense)});
  }
  {
    Chunk multi(1024);
    for (uint32_t i = 0; i < 300; ++i) {
      EXPECT_OK(multi.AppendSorted(i * 3 + 1, static_cast<int64_t>(i) % 17));
    }
    cases.push_back({"multi_block", std::move(multi)});
  }
  return cases;
}

TEST(CodecGoldenTest, SerializedBytesMatchCheckedInFixtures) {
  const std::filesystem::path dir = PARADISE_GOLDEN_DIR;
  const bool update = std::getenv("PARADISE_UPDATE_GOLDEN") != nullptr;
  if (update) std::filesystem::create_directories(dir);
  for (NamedChunk& c : GoldenChunks()) {
    for (ChunkFormat fmt : kConcreteFormats) {
      const std::filesystem::path file =
          dir / ("chunk_" + c.name + "_" + FormatTag(fmt) + ".hex");
      const std::string blob = c.chunk.Serialize(fmt);
      if (update) {
        std::ofstream out(file);
        out << HexEncode(blob);
        ASSERT_TRUE(out.good()) << "cannot write " << file;
        continue;
      }
      SCOPED_TRACE(file.string());
      std::ifstream in(file);
      ASSERT_TRUE(in.good())
          << "missing golden fixture — run codec_test once with "
             "PARADISE_UPDATE_GOLDEN=1 and check the files in";
      std::stringstream text;
      text << in.rdbuf();
      ASSERT_OK_AND_ASSIGN(std::string want, HexDecode(text.str()));
      // Writer side: today's serializer emits the pinned bytes.
      EXPECT_EQ(blob, want) << "serialized layout drifted for "
                            << FormatTag(fmt)
                            << " — this breaks files on disk";
      // Reader side: the pinned bytes (written by the build that created
      // the fixture) still decode to the same cells.
      Result<Chunk> back = Chunk::Deserialize(want);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_TRUE(*back == c.chunk);
    }
  }
}

// ---------------------------------------------------------------------------
// Storage: kAuto writes diff-sequence chunks into a database file, and the
// codec-matrix hook parses every spelling.

TEST(CodecCompatV5Test, V5FilesUsePackedCodecsUnderAuto) {
  if (std::optional<ChunkFormat> forced =
          ForcedChunkFormatFromEnv().value_or(std::nullopt);
      forced && *forced != ChunkFormat::kDiffSequence) {
    GTEST_SKIP() << "a forced format keeps kAuto from picking diff-sequence";
  }
  TempFile file("codec_v5");
  StorageManager storage;
  StorageOptions sopt;
  sopt.page_size = 4096;
  sopt.buffer_pool_pages = 64;
  ASSERT_OK(storage.Create(file.path(), sopt));
  ASSERT_OK_AND_ASSIGN(ChunkLayout layout, ChunkLayout::Make({4096}, {4096}));
  ArrayOptions aopt;
  aopt.chunk_format = ChunkFormat::kAuto;
  ChunkedArray::Builder builder(&storage, layout, aopt);
  ASSERT_OK(builder.Put({10}, 7));
  ASSERT_OK(builder.Put({2000}, -7));
  ASSERT_OK_AND_ASSIGN(ChunkedArray array, builder.Finish());
  ASSERT_OK_AND_ASSIGN(std::string blob, array.ReadChunkBlob(0));
  ASSERT_FALSE(blob.empty());
  EXPECT_EQ(static_cast<uint8_t>(blob[0]), 3u)
      << "two cells in 4096 should pick diff-sequence under kAuto";
  ASSERT_OK_AND_ASSIGN(std::optional<int64_t> v, array.GetCell({2000}));
  EXPECT_EQ(v, std::optional<int64_t>(-7));
  ASSERT_OK(storage.Close());
}

TEST(CodecCompatTestEnv, ForcedChunkFormatEnvParsesAllSpellings) {
  const std::map<std::string, ChunkFormat> spellings = {
      {"dense", ChunkFormat::kDense},
      {"offset", ChunkFormat::kOffsetCompressed},
      {"offset-compressed", ChunkFormat::kOffsetCompressed},
      {"auto", ChunkFormat::kAuto},
      {"lzw", ChunkFormat::kLzwDense},
      {"lzw-dense", ChunkFormat::kLzwDense},
      {"diffseq", ChunkFormat::kDiffSequence},
      {"diff-sequence", ChunkFormat::kDiffSequence},
  };
  for (const auto& [name, want] : spellings) {
    ChunkFormat got;
    EXPECT_TRUE(ChunkFormatFromString(name, &got)) << name;
    EXPECT_EQ(got, want) << name;
  }
  ChunkFormat ignored;
  EXPECT_FALSE(ChunkFormatFromString("zstd", &ignored));
  EXPECT_FALSE(ChunkFormatFromString("", &ignored));
  EXPECT_FALSE(ChunkFormatFromString("bitpacked", &ignored));

  ::setenv("PARADISE_FORCE_CHUNK_FORMAT", "diffseq", 1);
  EXPECT_EQ(ForcedChunkFormatFromEnv().value_or(std::nullopt),
            std::optional<ChunkFormat>(ChunkFormat::kDiffSequence));
  // A value that names no codec (a retired one included) fails every array
  // build with an error naming it, instead of silently running kAuto.
  for (const char* stale : {"nonsense", "bitpacked"}) {
    SCOPED_TRACE(stale);
    ::setenv("PARADISE_FORCE_CHUNK_FORMAT", stale, 1);
    EXPECT_TRUE(ForcedChunkFormatFromEnv().status().IsInvalidArgument());
    TempFile file("codec_forced_stale");
    StorageManager storage;
    StorageOptions sopt;
    sopt.page_size = 4096;
    sopt.buffer_pool_pages = 64;
    ASSERT_OK(storage.Create(file.path(), sopt));
    ASSERT_OK_AND_ASSIGN(ChunkLayout layout, ChunkLayout::Make({64}, {64}));
    ChunkedArray::Builder builder(&storage, layout, ArrayOptions());
    ASSERT_OK(builder.Put({1}, 1));
    const Status st = builder.Finish().status();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_NE(st.ToString().find(stale), std::string::npos) << st.ToString();
    ASSERT_OK(storage.Close());
  }
  ::unsetenv("PARADISE_FORCE_CHUNK_FORMAT");
  EXPECT_EQ(ForcedChunkFormatFromEnv().value_or(std::nullopt), std::nullopt);
}

}  // namespace
}  // namespace paradise
