// Tunable knobs for the storage manager and the OLAP array, gathered in
// options structs (RocksDB idiom) so tests and benches can sweep them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace paradise {

class Disk;

/// Storage-manager configuration.
struct StorageOptions {
  /// Size of one disk page in bytes. Must be a power of two >= 512.
  size_t page_size = 8192;

  /// Buffer-pool capacity in pages. The paper's Paradise runs used a 16 MB
  /// pool; 2048 8 KiB pages matches that default.
  size_t buffer_pool_pages = 2048;

  /// Number of independently latched buffer-pool partitions. Pages hash to a
  /// shard by PageId, each shard owning its own frames, page table, clock
  /// hand and statistics, so concurrent fetches of distinct pages proceed in
  /// parallel. The effective count is clamped so every shard keeps at least
  /// kMinFramesPerShard frames (small pools degrade to a single shard, which
  /// preserves the exact eviction order the single-threaded pool had).
  size_t pool_shards = 8;

  /// Worker threads in the background I/O pool that serves chunk read-ahead.
  /// 0 disables the pool and with it all read-ahead: every chunk read then
  /// happens synchronously on the consuming thread.
  size_t io_pool_threads = 2;

  /// Pages per extent for extent-based files (the fact file).
  size_t pages_per_extent = 32;

  /// If true, CreateDatabase() truncates an existing file.
  bool allow_overwrite = false;

  /// Open the file for reading only: Create() is rejected, all mutating page
  /// operations fail, and Close() releases the handle without committing.
  /// Used by verification tooling (dbverify) so that inspecting a damaged
  /// file can never modify it.
  bool read_only = false;

  /// If true, StorageManager::Open() runs the storage scrub (storage/scrub.h)
  /// right after recovery and fails with kCorruption when it finds issues.
  bool scrub_on_open = false;

  /// Transient-read-fault handling in the buffer pool: a failed disk read
  /// (kIOError) is retried up to this many additional times before the
  /// error propagates. Checksum failures (kCorruption) are never retried.
  size_t read_retry_limit = 2;

  /// Base backoff before the first read retry; doubles per attempt.
  uint64_t read_retry_backoff_micros = 100;

  /// Test/tooling hook: if set, the StorageManager passes its freshly
  /// constructed DiskManager through this decorator (e.g. wrapping it in a
  /// FaultInjectingDiskManager) before any I/O happens.
  std::function<std::unique_ptr<Disk>(std::unique_ptr<Disk>)> wrap_disk;

  /// Mirror storage-layer events into the process-wide MetricsRegistry
  /// (bufferpool.* counters, disk.*_micros latency histograms, prefetch.*).
  /// Components resolve their registry handles once, at construction, only
  /// when this is set; disabled (the default) costs one null test per event.
  bool metrics_enabled = false;

  /// Validates the option values.
  Status Validate() const;
};

/// Per-chunk physical format of the OLAP array.
enum class ChunkFormat : uint8_t {
  /// All cells materialized; invalid cells hold the sentinel.
  kDense = 0,
  /// Chunk-offset compression (paper §3.3): sorted (offset, value) pairs for
  /// valid cells only.
  kOffsetCompressed = 1,
  /// Pick per chunk whichever of dense, offset-compressed and
  /// diff-sequence serializes smallest (Chunk::ResolveFormat).
  kAuto = 2,
  /// LZW-compressed dense chunk — the generic Paradise tile compression the
  /// OLAP ADT replaced (paper §3.1); kept as an ablation.
  kLzwDense = 3,
  /// Difference-sequence compression (Szépkúti): the sorted offsets are
  /// delta-encoded and the gaps bit-packed to the chunk's measured gap
  /// width, with per-block anchors so probes stay sub-linear.
  kDiffSequence = 4,
  // 5 is reserved: it named a bit-packed codec that diff-sequence never
  // serializes larger than, and is rejected like any unknown value.
};

/// Highest ChunkFormat value a reader of this build understands. A stored
/// chunk-format byte above it is a corrupt or future-format file and must be
/// rejected with a typed error, never cast and silently misdecoded.
inline constexpr uint8_t kMaxChunkFormat =
    static_cast<uint8_t>(ChunkFormat::kDiffSequence);

std::string_view ChunkFormatToString(ChunkFormat format);

/// Parses a chunk-format name ("dense", "offset", "offset-compressed",
/// "auto", "lzw", "lzw-dense", "diffseq", "diff-sequence"). Returns true and
/// sets *out on a match.
bool ChunkFormatFromString(std::string_view name, ChunkFormat* out);

/// The chunk format forced by the PARADISE_FORCE_CHUNK_FORMAT environment
/// variable (test/CI hook: the codec-matrix CI job runs the whole tier-1
/// suite once per codec). nullopt when unset or empty; InvalidArgument
/// naming the value when it is not a chunk-format name, so a stale value
/// fails every build instead of silently running the default codec.
Result<std::optional<ChunkFormat>> ForcedChunkFormatFromEnv();

/// OLAP-array configuration.
struct ArrayOptions {
  /// Storage format for chunks. The paper always uses offset compression;
  /// kAuto is our ablation (DESIGN.md §4.3).
  ChunkFormat chunk_format = ChunkFormat::kOffsetCompressed;

  /// Chunk side length used for every dimension when the caller does not
  /// give explicit per-dimension chunk extents. The paper keeps chunk
  /// dimensions constant across array sizes (§5.5.1).
  uint32_t default_chunk_extent = 10;

  Status Validate() const;
};

}  // namespace paradise
