#include "core/morsel.h"

#include <algorithm>
#include <chrono>

#include "core/kernels/consolidate_kernel.h"

namespace paradise {

namespace {

// Upper bound on one parked interval. Normal wakeups still ride the notify;
// the timeout only bounds how long a missed notify or a cancel fired while
// every worker is parked can stall the join.
constexpr std::chrono::milliseconds kParkSlice{5};

}  // namespace

MorselPool::MorselPool(
    ChunkReadAhead* cursor,
    const std::vector<select_detail::SelectionChunkWork>* work,
    uint32_t min_cells, const CancellationToken* cancel)
    : cursor_(cursor),
      work_(work),
      min_cells_(std::max<uint32_t>(1, min_cells)),
      cancel_(cancel) {}

Result<bool> MorselPool::Next(size_t worker, Morsel* out) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (cancel_ != nullptr) {
      Status st = cancel_->Check();
      if (!st.ok()) {
        // Retire the pool so peers parked on the cv stop waiting for more
        // pieces instead of sleeping out their timeout one by one.
        exhausted_ = true;
        cv_.notify_all();
        return st;
      }
    }
    if (!queue_.empty()) {
      *out = std::move(queue_.front());
      queue_.pop_front();
      ++stats_.morsels;
      if (out->producer != worker) ++stats_.steals;
      return true;
    }
    if (exhausted_) {
      // A worker inside cursor_->Next() may still publish pieces of the
      // last chunk; wait for it rather than retiring this worker early.
      // The wait is bounded: a cancel that fires with every worker parked
      // here (fetching_ > 0 but the fetcher died without decrementing, or
      // its notify was consumed) must not hang the join forever.
      if (fetching_ == 0) return false;
      cv_.wait_for(lk, kParkSlice);
      continue;
    }
    ++fetching_;
    lk.unlock();
    uint64_t chunk_no = 0;
    ChunkedArray::ChunkParts parts;
    Result<bool> more = cursor_->Next(&chunk_no, &parts);
    lk.lock();
    // Waiters block only while exhausted_ && fetching_ > 0 (a late fetcher
    // may still publish split pieces). Every decrement reaching zero must
    // wake them, even on the no-split path that returns without queueing —
    // a fetcher can obtain the last real chunk after another worker already
    // observed end-of-cursor.
    --fetching_;
    if (fetching_ == 0) cv_.notify_all();
    if (!more.ok()) {
      exhausted_ = true;
      cv_.notify_all();
      return more.status();
    }
    if (!*more) {
      exhausted_ = true;
      cv_.notify_all();
      continue;  // re-check the queue before retiring
    }
    Morsel m;
    if (!parts.base.empty()) {
      auto shared = std::make_shared<const std::string>(std::move(parts.base));
      Result<ChunkView> view = ChunkView::Make(*shared);
      if (!view.ok()) {
        exhausted_ = true;
        cv_.notify_all();
        return view.status();
      }
      m.blob = std::move(shared);
      m.view = *view;
    }
    m.delta = parts.delta;
    m.chunk_no = chunk_no;
    if (work_ != nullptr) {
      // work_ is sorted by chunk_no (PlanSelectionChunks emits in chunk
      // order) and the cursor iterates exactly its chunk numbers.
      m.work = &*std::lower_bound(
          work_->begin(), work_->end(), chunk_no,
          [](const select_detail::SelectionChunkWork& lhs, uint64_t c) {
            return lhs.chunk_no < c;
          });
    }
    m.first = true;
    m.producer = worker;
    Split(&m);
    ++stats_.morsels;
    *out = std::move(m);
    return true;
  }
}

void MorselPool::Split(Morsel* m) {
  // `total` positions (§4.1) or cross-product candidates (§4.2) in the
  // chunk; the domain [m->begin, m->end) divides them evenly.
  uint64_t total = 0;
  if (m->work == nullptr) {
    m->end = m->view ? kernels::PositionCount(*m->view) : 0;
    total = m->end;
  } else {
    const select_detail::SelectionChunkWork& w = *m->work;
    const size_t n = w.slice_begin.size();
    total = 1;
    m->dim = n;
    for (size_t d = 0; d < n; ++d) {
      const uint32_t width = w.slice_end[d] - w.slice_begin[d];
      total *= width;
      if (m->dim == n && width >= 2) m->dim = d;
    }
    if (m->dim == n) m->dim = 0;
    m->begin = w.slice_begin[m->dim];
    m->end = w.slice_end[m->dim];
  }
  const uint32_t width = m->end - m->begin;
  if (width < 2 || total < 2ull * min_cells_) return;
  // Domain units per piece, so each piece holds about min_cells_.
  const auto unit = static_cast<uint32_t>(
      std::max<uint64_t>(1, min_cells_ / (total / width)));
  const uint32_t end = m->end;
  m->end = m->begin + unit;
  for (uint32_t b = m->end; b < end;) {
    Morsel piece = *m;
    piece.first = false;
    piece.begin = b;
    piece.end = static_cast<uint32_t>(
        std::min<uint64_t>(static_cast<uint64_t>(b) + unit, end));
    b = piece.end;
    queue_.push_back(std::move(piece));
    ++stats_.splits;
  }
  cv_.notify_all();
}

MorselPoolStats MorselPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace paradise
