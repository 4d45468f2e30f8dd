// Morsel-driven scheduling for the array executor (core/consolidate.h).
// Handing whole chunks to workers lets one skewed chunk (a few dense chunks
// holding most of the cells) serialize the tail of the query on a single
// worker. A MorselPool still claims chunks from the shared ChunkReadAhead
// cursor — preserving the announced I/O order — but the worker that fetches
// a large chunk splits it into ~min_cells-sized morsels, keeps the first and
// publishes the rest on a shared queue that any idle worker drains first.
// Small chunks (below 2*min_cells) stay whole: zero extra synchronization on
// the balanced path.
//
// The split domain depends on the morsel source. For a §4.1 scan it is the
// chunk's position range (kernels::AggregateRange). For a §4.2 probe it is
// the index-list slice of the first selection dimension holding two or more
// entries; a piece probes the cross-product box narrowed there.
//
// A morsel never spans chunks, so per-chunk decode tables are built at most
// once per (worker, chunk), and the cancellation poll at every Next() is at
// least as prompt as a per-chunk poll. Stealing is counted when a worker
// pops a morsel another worker produced; splits count the extra pieces
// published.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "array/chunk_prefetcher.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "core/consolidate_select.h"

namespace paradise {

/// Scheduling counters, summed over the query.
struct MorselPoolStats {
  uint64_t morsels = 0;  // total morsels handed out
  uint64_t splits = 0;   // extra pieces published beyond the first
  uint64_t steals = 0;   // morsels popped by a worker that did not fetch them
};

/// One unit of work: the piece [begin, end) of one chunk's split domain.
struct Morsel {
  uint64_t chunk_no = 0;
  /// The chunk's planned §4.2 work item; null for a §4.1 scan.
  const select_detail::SelectionChunkWork* work = nullptr;
  std::shared_ptr<const std::string> blob;  // owns the bytes `view` reads
  std::optional<ChunkView> view;
  /// §4.1: chunk positions. §4.2: entries [begin, end) of the list slice of
  /// dimension `dim` (the whole slice when the chunk is not split).
  size_t dim = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
  bool first = false;  // first morsel of its chunk (counts the chunk read)
  size_t producer = 0;
};

class MorselPool {
 public:
  /// `cursor` must outlive the pool and be drained only through it. `work`
  /// is null for a §4.1 scan; for a §4.2 probe it is sorted by chunk_no,
  /// outlives the pool, and the cursor iterates exactly its chunk numbers.
  /// `min_cells` is clamped to >= 1. `cancel` (may be null) is polled at
  /// every Next(); a worker parked inside Next() — waiting for a late
  /// fetcher — re-checks it on a bounded wait, so every worker leaves with
  /// the token's typed status promptly.
  MorselPool(ChunkReadAhead* cursor,
             const std::vector<select_detail::SelectionChunkWork>* work,
             uint32_t min_cells, const CancellationToken* cancel);

  /// Claims the next morsel for worker `worker`: shared queue first, then a
  /// fresh chunk from the cursor (splitting it if large). Returns false when
  /// all chunks are claimed and the queue is drained; blocks briefly only
  /// when another worker is mid-fetch and may still publish pieces.
  Result<bool> Next(size_t worker, Morsel* out);

  MorselPoolStats stats() const;

 private:
  /// Fills `m`'s split domain and queues its extra pieces when it is large.
  /// Called with mu_ held.
  void Split(Morsel* m);

  ChunkReadAhead* cursor_;
  const std::vector<select_detail::SelectionChunkWork>* work_;
  const uint32_t min_cells_;
  const CancellationToken* cancel_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Morsel> queue_;
  bool exhausted_ = false;  // cursor returned "no more chunks" (or an error)
  size_t fetching_ = 0;     // workers currently inside cursor_->Next()
  MorselPoolStats stats_;
};

}  // namespace paradise
