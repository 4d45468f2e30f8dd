// ChunkReadAhead: a multi-consumer cursor over a list of chunk numbers that
// keeps up to `depth` chunk blobs in flight on the storage manager's
// background I/O pool, ahead of the consuming thread(s). This is the
// chunk-granular analogue of the sequential-prefetch the paper's Paradise
// runs got from SHORE: the consolidation scan announces its access pattern
// (all candidate chunks, in chunk-number = physical order), so the storage
// layer can overlap the next reads with the current chunk's decode and
// aggregation work.
//
// Usage (each worker thread):
//   ChunkReadAhead cursor(array, chunks, depth, io_pool, pool);
//   uint64_t chunk_no; ChunkedArray::ChunkParts parts;
//   while (true) {
//     PARADISE_ASSIGN_OR_RETURN(bool more, cursor.Next(&chunk_no, &parts));
//     if (!more) break;
//     ... decode and aggregate parts.base, merging parts.delta ...
//   }
//
// A chunk is handed out as ChunkedArray::ReadChunkParts returns it: base
// bytes plus the pinned version's delta, never a re-encoded merge.
//
// Next() hands out chunks strictly in list order. A chunk whose background
// read already finished is taken without blocking (a prefetch hit); one
// still in flight is waited for; one never scheduled (depth or pool
// exhausted, or read-ahead disabled) is read synchronously on the consumer.
// Read failures surface on the consumer that claims the chunk, with the
// same Status the synchronous path would have produced.
//
// Lifetime: background tasks share ownership of the internal state block,
// so a cursor abandoned on an error path cannot dangle; the destructor
// cancels unstarted tasks and waits only for tasks already mid-read (they
// hold the array pointer).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "array/chunked_array.h"
#include "common/result.h"
#include "common/status.h"

namespace paradise {

class BufferPool;
class IoPool;

class ChunkReadAhead {
 public:
  /// `array` must outlive the cursor. `chunks` is the exact claim order.
  /// `io_pool` may be null and `depth` zero — both disable read-ahead and
  /// make every Next() a synchronous read. `pool` (may be null) receives
  /// prefetched / prefetch-hit accounting.
  ChunkReadAhead(const ChunkedArray* array, std::vector<uint64_t> chunks,
                 size_t depth, IoPool* io_pool, BufferPool* pool);
  ~ChunkReadAhead();

  ChunkReadAhead(const ChunkReadAhead&) = delete;
  ChunkReadAhead& operator=(const ChunkReadAhead&) = delete;

  /// Claims the next chunk in order. Returns true with `*chunk_no` and
  /// `*parts` filled, false when the list is exhausted, or the error the
  /// chunk's read produced. Safe to call from multiple threads; each chunk
  /// is handed to exactly one caller.
  Result<bool> Next(uint64_t* chunk_no, ChunkedArray::ChunkParts* parts);

 private:
  struct Slot {
    enum : uint8_t { kIdle = 0, kScheduled, kReady, kFailed };
    uint8_t state = kIdle;
    ChunkedArray::ChunkParts parts;
    Status status;
  };

  /// Shared between the cursor and its background tasks (shared_ptr-owned so
  /// in-flight tasks survive cursor destruction).
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    const ChunkedArray* array = nullptr;
    BufferPool* pool = nullptr;
    std::vector<uint64_t> chunks;
    std::vector<Slot> slots;      // parallel to `chunks`
    size_t next_claim = 0;        // next index Next() hands out
    size_t next_schedule = 0;     // first index not yet scheduled
    bool cancelled = false;
    size_t in_flight = 0;         // tasks currently executing
  };

  /// Schedules reads for [next_claim, next_claim + depth) that are still
  /// idle. Called with st->mu held.
  static void ScheduleWindow(const std::shared_ptr<State>& st, size_t depth,
                             IoPool* io_pool);

  std::shared_ptr<State> state_;
  size_t depth_;
  IoPool* io_pool_;
};

}  // namespace paradise
