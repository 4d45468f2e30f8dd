#include "array/chunk_prefetcher.h"

#include <algorithm>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/io_pool.h"

namespace paradise {

ChunkReadAhead::ChunkReadAhead(const ChunkedArray* array,
                               std::vector<uint64_t> chunks, size_t depth,
                               IoPool* io_pool, BufferPool* pool)
    : state_(std::make_shared<State>()), depth_(depth), io_pool_(io_pool) {
  state_->array = array;
  state_->pool = pool;
  state_->chunks = std::move(chunks);
  state_->slots.resize(state_->chunks.size());
}

ChunkReadAhead::~ChunkReadAhead() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cancelled = true;
  // Tasks not yet started will see `cancelled` and bail before touching the
  // array; tasks mid-read hold the array pointer, so wait those out.
  state_->cv.wait(lock, [this] { return state_->in_flight == 0; });
  // Blobs read ahead but never claimed (early scan termination) were wasted
  // I/O; account them so prefetch tuning can see over-eager windows.
  uint64_t wasted = 0;
  for (size_t idx = state_->next_claim; idx < state_->slots.size(); ++idx) {
    if (state_->slots[idx].state == Slot::kReady) ++wasted;
  }
  if (state_->pool != nullptr) state_->pool->RecordPrefetchWasted(wasted);
}

void ChunkReadAhead::ScheduleWindow(const std::shared_ptr<State>& st,
                                    size_t depth, IoPool* io_pool) {
  if (io_pool == nullptr || depth == 0) return;
  const size_t end = std::min(st->chunks.size(), st->next_claim + depth);
  if (st->next_schedule < st->next_claim) st->next_schedule = st->next_claim;
  for (; st->next_schedule < end; ++st->next_schedule) {
    const size_t idx = st->next_schedule;
    if (st->slots[idx].state != Slot::kIdle) continue;
    st->slots[idx].state = Slot::kScheduled;
    ++st->in_flight;
    const bool accepted = io_pool->Submit([st, idx] {
      std::unique_lock<std::mutex> lock(st->mu);
      if (st->cancelled || st->slots[idx].state != Slot::kScheduled) {
        --st->in_flight;
        st->cv.notify_all();
        return;
      }
      lock.unlock();
      Result<ChunkedArray::ChunkParts> parts =
          st->array->ReadChunkParts(st->chunks[idx]);
      lock.lock();
      Slot& slot = st->slots[idx];
      if (parts.ok()) {
        slot.parts = std::move(parts).value();
        slot.state = Slot::kReady;
        if (st->pool != nullptr) st->pool->RecordPrefetch();
      } else {
        slot.status = parts.status();
        slot.state = Slot::kFailed;
      }
      --st->in_flight;
      st->cv.notify_all();
    });
    if (!accepted) {
      // Pool shut down: fall back to synchronous reads on the consumers.
      st->slots[idx].state = Slot::kIdle;
      --st->in_flight;
      return;
    }
  }
}

Result<bool> ChunkReadAhead::Next(uint64_t* chunk_no,
                                  ChunkedArray::ChunkParts* parts) {
  std::shared_ptr<State>& st = state_;
  std::unique_lock<std::mutex> lock(st->mu);
  if (st->next_claim >= st->chunks.size()) return false;
  const size_t idx = st->next_claim++;
  ScheduleWindow(st, depth_, io_pool_);

  Slot& slot = st->slots[idx];
  if (slot.state == Slot::kReady) {
    if (st->pool != nullptr) st->pool->RecordPrefetchHit();
  } else if (slot.state == Slot::kScheduled) {
    st->cv.wait(lock, [&slot] {
      return slot.state == Slot::kReady || slot.state == Slot::kFailed;
    });
  }

  switch (slot.state) {
    case Slot::kReady:
      *chunk_no = st->chunks[idx];
      *parts = std::move(slot.parts);
      slot.parts = {};
      return true;
    case Slot::kFailed:
      return slot.status;
    default: {
      // Never scheduled: read synchronously, off the latch so other
      // consumers can claim and wait concurrently.
      const uint64_t chunk = st->chunks[idx];
      lock.unlock();
      PARADISE_ASSIGN_OR_RETURN(*parts, st->array->ReadChunkParts(chunk));
      *chunk_no = chunk;
      return true;
    }
  }
}

}  // namespace paradise
