#include "array/chunk_prefetcher.h"

#include <utility>

#include "storage/buffer_pool.h"
#include "storage/io_pool.h"

namespace paradise {

ChunkReadAhead::ChunkReadAhead(const ChunkedArray* array,
                               std::vector<uint64_t> chunks,
                               size_t window_bytes, IoPool* io_pool,
                               BufferPool* pool)
    : state_(std::make_shared<State>()),
      io_pool_(io_pool),
      read_ahead_(window_bytes > 0 && io_pool != nullptr) {
  State& st = *state_;
  st.array = array;
  st.pool = pool;
  st.chunks = std::move(chunks);
  st.window_bytes = window_bytes;
  if (read_ahead_) st.slots.resize(st.chunks.size());
}

ChunkReadAhead::~ChunkReadAhead() {
  if (!read_ahead_) return;
  State& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  st.stop = true;
  // A reader still queued exits without touching the array when it runs; a
  // reader mid-read holds the array pointer and a page pin, so wait it out.
  ++st.waiting;
  st.cv.wait(lock, [&st] { return !st.reading; });
  --st.waiting;
  // Chunks read ahead but never claimed (early scan termination) were
  // wasted I/O; account them so the window size stays visible.
  if (st.pool != nullptr && st.next_read > st.next_claim) {
    st.pool->RecordPrefetchWasted(st.next_read - st.next_claim);
  }
  st.slots.clear();
}

void ChunkReadAhead::StartReader() {
  State& st = *state_;
  st.reader_live = true;
  std::shared_ptr<State> shared = state_;
  if (io_pool_->Submit([shared] { ReadWindow(shared); })) return;
  // The pool shut down: consumers read every chunk not yet read themselves.
  st.reader_live = false;
  st.refused = true;
}

void ChunkReadAhead::ReadWindow(const std::shared_ptr<State>& shared) {
  State& st = *shared;
  std::unique_lock<std::mutex> lock(st.mu);
  while (!st.stop && st.next_read < st.chunks.size() &&
         st.buffered < st.window_bytes) {
    const size_t i = st.next_read;
    st.reading = true;
    lock.unlock();
    // Slot i belongs to the reader until next_read passes it.
    Result<ChunkedArray::ChunkParts> read =
        st.array->ReadChunkParts(st.chunks[i]);
    lock.lock();
    st.reading = false;
    if (!read.ok()) {
      st.failure = read.status();
      break;
    }
    st.slots[i] = std::move(read).value();
    st.buffered += st.slots[i].base.size();
    st.next_read = i + 1;
    if (st.pool != nullptr) st.pool->RecordPrefetch();
    if (st.waiting > 0) st.cv.notify_all();
  }
  st.reader_live = false;
  if (st.waiting > 0) st.cv.notify_all();
}

Result<bool> ChunkReadAhead::Next(uint64_t* chunk_no,
                                  ChunkedArray::ChunkParts* parts) {
  State& st = *state_;
  std::unique_lock<std::mutex> lock(st.mu);
  if (st.next_claim >= st.chunks.size()) return false;
  const size_t i = st.next_claim++;
  const uint64_t chunk = st.chunks[i];
  if (read_ahead_) {
    bool waited = false;
    while (i >= st.next_read && !st.refused) {
      if (!st.failure.ok()) return st.failure;
      if (!st.reader_live) {
        StartReader();
        continue;
      }
      waited = true;
      ++st.waiting;
      st.cv.wait(lock);
      --st.waiting;
    }
    if (i < st.next_read) {
      *parts = std::move(st.slots[i]);
      st.buffered -= parts->base.size();
      if (!waited && st.pool != nullptr) st.pool->RecordPrefetchHit();
      // Hysteresis: the reader restarts only once half the window drained.
      if (!st.reader_live && !st.refused && st.failure.ok() &&
          st.next_read < st.chunks.size() &&
          st.buffered <= st.window_bytes / 2) {
        StartReader();
      }
      *chunk_no = chunk;
      return true;
    }
  }
  // Read-ahead off, or refused: read on this thread, off the latch so other
  // consumers can claim concurrently.
  lock.unlock();
  PARADISE_ASSIGN_OR_RETURN(*parts, st.array->ReadChunkParts(chunk));
  *chunk_no = chunk;
  return true;
}

}  // namespace paradise
