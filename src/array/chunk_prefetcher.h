// ChunkReadAhead: a cursor over a list of chunk numbers that hands each
// chunk to exactly one consumer, in list order. With read-ahead on, one
// reader task on the storage manager's background I/O pool reads the chunks
// in that same order, up to a byte window ahead of the consumers, while they
// decode and aggregate. This is the chunk-granular analogue of the
// sequential prefetch the paper's Paradise runs got from SHORE: the
// consolidation scan announces its access pattern (its chunks in
// chunk-number = physical order) and the storage reads overlap the kernel.
//
// Usage (each worker thread):
//   ChunkReadAhead cursor(array, chunks, window_bytes, io_pool, pool);
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
// One schedule, so the page reads never change. While read-ahead is on, the
// reader is the only thread that reads a chunk: it reads them one after
// another in list order, exactly the disk reads of a synchronous serial
// scan, so the sequential/random split, the modeled I/O and every figure
// counter match that scan at any number of consumers. Consumers only wait.
// The reader never parks on an I/O thread, because StorageManager::QuiesceIo
// and the compactor wait for every I/O task: once the chunks it holds for
// the consumers reach the byte window it exits, and the consumer that drains
// them to half the window resubmits it (the hysteresis keeps that to a few
// handoffs per scan). The reader signals only while a consumer waits. Only a
// refused Submit (the pool shut down) makes consumers read for themselves.
//
// Read-ahead off (window 0 or no I/O pool): every Next() reads its chunk
// synchronously on the caller, with no handoff — the path of scans whose
// pages are already buffered.
//
// A read failure stops the reader; the consumer claiming that chunk, and
// every later one, gets the Status the synchronous read would have
// returned. Lifetime: the reader shares ownership of the internal state, so
// a cursor abandoned on an error path cannot dangle; the destructor stops
// the reader and waits only while it is inside a read (it holds the array
// pointer and pins pages), so no frame stays pinned once it returns.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
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
  /// `window_bytes` bounds the chunk bytes read ahead of the claims (at
  /// least one chunk); 0 or a null `io_pool` turns read-ahead off.
  /// `pool` (may be null) receives prefetched / prefetch-hit / wasted
  /// accounting.
  ChunkReadAhead(const ChunkedArray* array, std::vector<uint64_t> chunks,
                 size_t window_bytes, IoPool* io_pool, BufferPool* pool);
  ~ChunkReadAhead();

  ChunkReadAhead(const ChunkReadAhead&) = delete;
  ChunkReadAhead& operator=(const ChunkReadAhead&) = delete;

  /// Claims the next chunk in order. Returns true with `*chunk_no` and
  /// `*parts` filled, false when the list is exhausted, or the error the
  /// chunk's read produced. Safe to call from multiple threads; each chunk
  /// is handed to exactly one caller.
  Result<bool> Next(uint64_t* chunk_no, ChunkedArray::ChunkParts* parts);

 private:
  /// Shared between the cursor and its reader task (shared_ptr-owned so a
  /// reader still queued when the cursor dies finds it alive).
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    const ChunkedArray* array = nullptr;
    BufferPool* pool = nullptr;
    std::vector<uint64_t> chunks;
    // Read-ahead only, parallel to `chunks`: what the reader read, moved
    // out when claimed.
    std::vector<ChunkedArray::ChunkParts> slots;
    size_t window_bytes = 0;
    size_t next_claim = 0;  // next index Next() hands out
    size_t next_read = 0;   // chunks [0, next_read) are read
    uint64_t buffered = 0;  // base bytes read and not yet claimed
    bool reader_live = false;  // a reader task is queued or running
    bool reading = false;      // the reader is inside a chunk read
    bool stop = false;         // the cursor is gone: the reader exits
    bool refused = false;      // Submit refused: consumers read themselves
    size_t waiting = 0;        // threads waiting on `cv`
    Status failure;            // the reader's error at chunk `next_read`
  };

  /// Submits the reader. Called with st->mu held and no reader live.
  void StartReader();
  /// The reader task: reads chunks in order until the window is full.
  static void ReadWindow(const std::shared_ptr<State>& st);

  std::shared_ptr<State> state_;
  IoPool* io_pool_;
  bool read_ahead_;
};

}  // namespace paradise
