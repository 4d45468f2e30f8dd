// BufferPool: fixed-capacity page cache over the DiskManager with clock
// eviction, pin counting, dirty tracking, and hit/miss statistics. Every
// higher-level structure (fact file, B-trees, bitmaps, array chunks) does
// its page I/O through this class, so both query engines compete under the
// same I/O accounting — mirroring the paper, where both run inside Paradise
// on one SHORE buffer pool.
//
// The pool is safe for concurrent use: frames are partitioned into shards
// (PageId hash → shard), each shard independently latched with its own
// clock hand, free list, page table and statistics, so parallel workers
// fetching distinct pages never contend and a disk read on one shard never
// blocks hits on any other. Within one shard a miss drops the latch for the
// disk read (the frame is reserved with an io-in-progress flag; concurrent
// fetches of the same page wait on it rather than duplicating the I/O).
// Latch ordering: shard latch before disk mutex; no path takes two shard
// latches at once (cross-shard operations visit shards one at a time).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace paradise {

class BufferPool;

/// Counters exposed for benchmarking. `logical_reads` counts FetchPage
/// calls; `disk_reads` counts the subset that missed the pool. Disk reads
/// are further classified: a read of the page physically following the
/// previous disk read is `seq_disk_reads`, anything else `rand_disk_reads` —
/// the split the 1997 I/O cost model in query/engine.h uses.
struct BufferPoolStats {
  uint64_t logical_reads = 0;
  uint64_t hits = 0;
  uint64_t disk_reads = 0;
  uint64_t seq_disk_reads = 0;
  uint64_t rand_disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t evictions = 0;
  /// Disk reads re-issued after a transient (kIOError) failure.
  uint64_t read_retries = 0;
  /// Fetches that found another thread's read of the same page already in
  /// flight and waited on it instead of duplicating the I/O.
  uint64_t coalesced_reads = 0;
  /// Chunk blobs read ahead of consumers by the background I/O pool, the
  /// subset a consumer later took without waiting, and the subset that was
  /// read ahead but never consumed (see ChunkReadAhead).
  uint64_t prefetched = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;

  /// Counter-wise `*this - earlier`, saturating at 0: if ResetStats() ran
  /// between the two snapshots (as the bench harness does between warm-up
  /// and measured runs) the later counters can be smaller, and a raw
  /// unsigned subtract would report ~2^64 events.
  BufferPoolStats Delta(const BufferPoolStats& earlier) const {
    auto sat = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    BufferPoolStats d;
    d.logical_reads = sat(logical_reads, earlier.logical_reads);
    d.hits = sat(hits, earlier.hits);
    d.disk_reads = sat(disk_reads, earlier.disk_reads);
    d.seq_disk_reads = sat(seq_disk_reads, earlier.seq_disk_reads);
    d.rand_disk_reads = sat(rand_disk_reads, earlier.rand_disk_reads);
    d.disk_writes = sat(disk_writes, earlier.disk_writes);
    d.evictions = sat(evictions, earlier.evictions);
    d.read_retries = sat(read_retries, earlier.read_retries);
    d.coalesced_reads = sat(coalesced_reads, earlier.coalesced_reads);
    d.prefetched = sat(prefetched, earlier.prefetched);
    d.prefetch_hits = sat(prefetch_hits, earlier.prefetch_hits);
    d.prefetch_wasted = sat(prefetch_wasted, earlier.prefetch_wasted);
    return d;
  }
};

/// RAII pin on a buffered page. While alive, the frame cannot be evicted.
/// `mutable_data()` marks the page dirty. Movable, not copyable.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t shard_index, size_t frame_index,
            PageId page_id)
      : pool_(pool),
        shard_index_(shard_index),
        frame_index_(frame_index),
        page_id_(page_id) {}
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  /// Read-only view of the page bytes.
  const char* data() const;

  /// Writable view; marks the page dirty.
  char* mutable_data();

  /// Drops the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t shard_index_ = 0;
  size_t frame_index_ = 0;
  PageId page_id_ = kInvalidPageId;
};

class BufferPool {
 public:
  BufferPool(Disk* disk, const StorageOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned guard on page `id`, reading it from disk on a miss.
  /// Safe to call from any thread.
  Result<PageGuard> FetchPage(PageId id);

  /// Allocates a fresh zeroed page and returns it pinned (and dirty).
  Result<PageGuard> NewPage();

  /// Frees page `id` on disk. The page must not be pinned; any cached copy
  /// is dropped without write-back.
  Status DeletePage(PageId id);

  /// Writes back one dirty page, keeping it cached.
  Status FlushPage(PageId id);

  /// Writes back all dirty pages, keeping them cached.
  Status FlushAll();

  /// Writes back all dirty pages and drops every unpinned frame. With no
  /// outstanding pins this empties the pool — the library's equivalent of
  /// the paper's cold-buffer protocol.
  Status FlushAndEvictAll();

  size_t capacity() const { return capacity_; }
  size_t page_size() const { return page_size_; }
  size_t num_shards() const { return shards_.size(); }

  /// Aggregated counters across all shards. Consistent only when no fetches
  /// are concurrently in flight (the benches read stats between queries).
  BufferPoolStats stats() const;
  void ResetStats();

  /// Read-ahead accounting hooks used by ChunkReadAhead.
  void RecordPrefetch();
  void RecordPrefetchHit();
  void RecordPrefetchWasted(uint64_t n);

  /// Number of currently pinned frames (for tests / leak detection).
  size_t pinned_frames() const;

 private:
  friend class PageGuard;

  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool referenced = false;
    /// Set while the owning fetch reads the page from disk outside the shard
    /// latch; concurrent fetches of the same page wait on `io_cv`.
    bool io_in_progress = false;
    std::vector<char> data;
  };

  /// One independently latched pool partition.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable io_cv;
    std::vector<Frame> frames;
    std::vector<size_t> free_frames;
    std::unordered_map<PageId, size_t> page_table;
    size_t clock_hand = 0;
    BufferPoolStats stats;
  };

  size_t ShardIndex(PageId id) const {
    // Cheap integer mix so physically clustered page runs still spread
    // across shards instead of striding one shard per run modulus.
    uint64_t h = id * UINT64_C(0x9e3779b97f4a7c15);
    return static_cast<size_t>(h >> 32) % shards_.size();
  }

  /// Finds a frame to (re)use in `s`, evicting an unpinned page if needed.
  /// Called with the shard latch held.
  Result<size_t> AcquireFrame(Shard& s);

  /// Second-chance clock victim selection; returns the frame index or an
  /// error when every frame is pinned. Shard latch held.
  Result<size_t> PickClockVictim(Shard& s);

  void Unpin(size_t shard_index, size_t frame_index);
  const char* FrameData(size_t shard_index, size_t frame_index) const;
  char* MutableFrameData(size_t shard_index, size_t frame_index);

  /// One read attempt against the disk, with bounded retry-with-backoff for
  /// transient (kIOError) failures. kCorruption is never retried. Called
  /// WITHOUT any shard latch held; retry counts land in `s.stats` after the
  /// latch is re-taken by the caller.
  Status ReadWithRetry(PageId id, char* buf, uint64_t* retries);

  /// Classifies a completed disk read as sequential or random and bumps the
  /// shard's counters. Shard latch held.
  void CountDiskRead(Shard& s, PageId id);

  Disk* disk_;
  size_t page_size_;
  size_t capacity_;
  size_t read_retry_limit_;
  uint64_t read_retry_backoff_micros_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global last-read page for seq/rand classification; atomic so the
  /// classification stays exact for serial workloads and merely approximate
  /// under concurrency.
  std::atomic<PageId> last_disk_read_{kInvalidPageId};
  std::atomic<uint64_t> prefetched_{0};
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};

  /// Process-wide registry mirrors ("bufferpool.*" / "prefetch.*"), resolved
  /// once at construction when StorageOptions::metrics_enabled is set and
  /// null otherwise — the disabled hot-path cost is one pointer test.
  struct Mirror {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* evictions = nullptr;
    Counter* coalesced_reads = nullptr;
    Counter* disk_writes = nullptr;
    Counter* read_retries = nullptr;
    Counter* prefetched = nullptr;
    Counter* prefetch_hits = nullptr;
    Counter* prefetch_wasted = nullptr;
  };
  Mirror mirror_;
};

}  // namespace paradise
