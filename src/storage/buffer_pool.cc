#include "storage/buffer_pool.h"

#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

namespace paradise {

namespace {
/// Shard-count clamp: every shard keeps at least this many frames, so small
/// pools (and the tests that reason about exact eviction order) collapse to
/// a single shard with the same semantics the unsharded pool had.
constexpr size_t kMinFramesPerShard = 16;

size_t EffectiveShards(const StorageOptions& options) {
  const size_t by_capacity =
      options.buffer_pool_pages / (2 * kMinFramesPerShard);
  size_t shards = options.pool_shards;
  if (shards > by_capacity) shards = by_capacity;
  return shards == 0 ? 1 : shards;
}
}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_index_ = other.shard_index_;
    frame_index_ = other.frame_index_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
    other.page_id_ = kInvalidPageId;
  }
  return *this;
}

const char* PageGuard::data() const {
  assert(valid());
  return pool_->FrameData(shard_index_, frame_index_);
}

char* PageGuard::mutable_data() {
  assert(valid());
  return pool_->MutableFrameData(shard_index_, frame_index_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(shard_index_, frame_index_);
    pool_ = nullptr;
    page_id_ = kInvalidPageId;
  }
}

BufferPool::BufferPool(Disk* disk, const StorageOptions& options)
    : disk_(disk),
      page_size_(options.page_size),
      capacity_(options.buffer_pool_pages),
      read_retry_limit_(options.read_retry_limit),
      read_retry_backoff_micros_(options.read_retry_backoff_micros) {
  if (options.metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    mirror_.hits = reg.GetCounter("bufferpool.hits");
    mirror_.misses = reg.GetCounter("bufferpool.misses");
    mirror_.evictions = reg.GetCounter("bufferpool.evictions");
    mirror_.coalesced_reads = reg.GetCounter("bufferpool.coalesced_reads");
    mirror_.disk_writes = reg.GetCounter("bufferpool.disk_writes");
    mirror_.read_retries = reg.GetCounter("bufferpool.read_retries");
    mirror_.prefetched = reg.GetCounter("prefetch.issued");
    mirror_.prefetch_hits = reg.GetCounter("prefetch.hits");
    mirror_.prefetch_wasted = reg.GetCounter("prefetch.wasted");
  }
  const size_t num_shards = EffectiveShards(options);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // Distribute frames evenly; the first (capacity % shards) shards take
    // one extra so the total stays exactly buffer_pool_pages.
    const size_t frames =
        capacity_ / num_shards + (s < capacity_ % num_shards ? 1 : 0);
    shard->frames.resize(frames);
    shard->free_frames.reserve(frames);
    for (size_t i = frames; i > 0; --i) {
      shard->free_frames.push_back(i - 1);
    }
    shards_.push_back(std::move(shard));
  }
}

const char* BufferPool::FrameData(size_t shard_index,
                                  size_t frame_index) const {
  // No latch: the caller holds a pin, so the frame cannot be evicted or
  // reused, and its data vector is never reallocated while pinned.
  return shards_[shard_index]->frames[frame_index].data.data();
}

char* BufferPool::MutableFrameData(size_t shard_index, size_t frame_index) {
  Shard& s = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(s.mu);
  Frame& f = s.frames[frame_index];
  f.dirty = true;
  return f.data.data();
}

Result<size_t> BufferPool::PickClockVictim(Shard& s) {
  // Clock sweep: clear reference bits until an unpinned, unreferenced frame
  // is found. Two full sweeps with no victim means every frame is pinned.
  const size_t n = s.frames.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& f = s.frames[s.clock_hand];
    const size_t idx = s.clock_hand;
    s.clock_hand = (s.clock_hand + 1) % n;
    if (f.pin_count > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    return idx;
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all " + std::to_string(n) +
      " frames of the page's shard pinned");
}

Result<size_t> BufferPool::AcquireFrame(Shard& s) {
  if (!s.free_frames.empty()) {
    const size_t idx = s.free_frames.back();
    s.free_frames.pop_back();
    if (s.frames[idx].data.empty()) s.frames[idx].data.resize(page_size_);
    return idx;
  }
  PARADISE_ASSIGN_OR_RETURN(size_t idx, PickClockVictim(s));
  Frame& f = s.frames[idx];
  if (f.dirty) {
    // Write-back under the shard latch: only this shard stalls, and the
    // OLAP read path evicts clean pages almost exclusively.
    PARADISE_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.data()));
    ++s.stats.disk_writes;
    if (mirror_.disk_writes != nullptr) mirror_.disk_writes->Increment();
    f.dirty = false;
  }
  s.page_table.erase(f.page_id);
  f.page_id = kInvalidPageId;
  ++s.stats.evictions;
  if (mirror_.evictions != nullptr) mirror_.evictions->Increment();
  return idx;
}

void BufferPool::CountDiskRead(Shard& s, PageId id) {
  ++s.stats.disk_reads;
  const PageId prev =
      last_disk_read_.exchange(id, std::memory_order_relaxed);
  if (prev != kInvalidPageId && id == prev + 1) {
    ++s.stats.seq_disk_reads;
  } else {
    ++s.stats.rand_disk_reads;
  }
}

bool BufferPool::IsResident(PageId id) const {
  const Shard& s = *shards_[ShardIndex(id)];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.page_table.count(id) != 0;
}

Result<PageGuard> BufferPool::FetchPage(PageId id) {
  const size_t shard_index = ShardIndex(id);
  Shard& s = *shards_[shard_index];
  std::unique_lock<std::mutex> lock(s.mu);
  ++s.stats.logical_reads;
  bool counted_coalesced = false;
  for (;;) {
    auto it = s.page_table.find(id);
    if (it == s.page_table.end()) break;
    Frame& f = s.frames[it->second];
    if (f.io_in_progress) {
      // Another thread is reading this page right now; wait instead of
      // issuing a duplicate disk read. On wake the frame may have been
      // reclaimed (failed read), so re-run the lookup from scratch. Count
      // the coalescing once per fetch, not once per (spurious) wakeup.
      if (!counted_coalesced) {
        counted_coalesced = true;
        ++s.stats.coalesced_reads;
        if (mirror_.coalesced_reads != nullptr) {
          mirror_.coalesced_reads->Increment();
        }
      }
      s.io_cv.wait(lock);
      continue;
    }
    ++s.stats.hits;
    if (mirror_.hits != nullptr) mirror_.hits->Increment();
    ++f.pin_count;
    f.referenced = true;
    return PageGuard(this, shard_index, it->second, id);
  }
  PARADISE_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(s));
  Frame& f = s.frames[idx];
  // Reserve the frame (pinned + io flag) so eviction skips it and same-page
  // fetches wait, then read outside the latch so other pages in this shard
  // stay servable during the I/O.
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.referenced = true;
  f.io_in_progress = true;
  s.page_table[id] = idx;
  lock.unlock();

  uint64_t retries = 0;
  Status st = ReadWithRetry(id, f.data.data(), &retries);

  lock.lock();
  f.io_in_progress = false;
  s.stats.read_retries += retries;
  if (mirror_.read_retries != nullptr && retries > 0) {
    mirror_.read_retries->Increment(retries);
  }
  if (mirror_.misses != nullptr) mirror_.misses->Increment();
  if (!st.ok()) {
    s.page_table.erase(id);
    f.page_id = kInvalidPageId;
    f.pin_count = 0;
    s.free_frames.push_back(idx);
    s.io_cv.notify_all();
    return st;
  }
  CountDiskRead(s, id);
  s.io_cv.notify_all();
  return PageGuard(this, shard_index, idx, id);
}

Result<PageGuard> BufferPool::NewPage() {
  PARADISE_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage());
  const size_t shard_index = ShardIndex(id);
  Shard& s = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(s.mu);
  PARADISE_ASSIGN_OR_RETURN(size_t idx, AcquireFrame(s));
  Frame& f = s.frames[idx];
  std::memset(f.data.data(), 0, page_size_);
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  f.referenced = true;
  f.io_in_progress = false;
  s.page_table[id] = idx;
  return PageGuard(this, shard_index, idx, id);
}

Status BufferPool::DeletePage(PageId id) {
  Shard& s = *shards_[ShardIndex(id)];
  {
    std::unique_lock<std::mutex> lock(s.mu);
    auto it = s.page_table.find(id);
    if (it != s.page_table.end()) {
      Frame& f = s.frames[it->second];
      if (f.pin_count > 0) {
        return Status::InvalidArgument("cannot delete pinned page " +
                                       std::to_string(id));
      }
      f.page_id = kInvalidPageId;
      f.dirty = false;
      s.free_frames.push_back(it->second);
      s.page_table.erase(it);
    }
  }
  return disk_->FreePage(id);
}

Status BufferPool::FlushPage(PageId id) {
  Shard& s = *shards_[ShardIndex(id)];
  std::unique_lock<std::mutex> lock(s.mu);
  auto it = s.page_table.find(id);
  if (it == s.page_table.end()) return Status::OK();
  Frame& f = s.frames[it->second];
  if (f.dirty) {
    PARADISE_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.data()));
    ++s.stats.disk_writes;
    if (mirror_.disk_writes != nullptr) mirror_.disk_writes->Increment();
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (Frame& f : s.frames) {
      if (f.page_id != kInvalidPageId && f.dirty) {
        PARADISE_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.data.data()));
        ++s.stats.disk_writes;
        if (mirror_.disk_writes != nullptr) mirror_.disk_writes->Increment();
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::FlushAndEvictAll() {
  PARADISE_RETURN_IF_ERROR(FlushAll());
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (size_t i = 0; i < s.frames.size(); ++i) {
      Frame& f = s.frames[i];
      if (f.page_id == kInvalidPageId || f.pin_count > 0) continue;
      s.page_table.erase(f.page_id);
      f.page_id = kInvalidPageId;
      f.referenced = false;
      s.free_frames.push_back(i);
    }
  }
  return Status::OK();
}

Status BufferPool::ReadWithRetry(PageId id, char* buf, uint64_t* retries) {
  Status st = disk_->ReadPage(id, buf);
  uint64_t backoff = read_retry_backoff_micros_;
  for (size_t attempt = 0; !st.ok() && st.IsIOError() &&
                           attempt < read_retry_limit_;
       ++attempt) {
    // Only transient I/O errors are worth re-issuing; a checksum mismatch
    // (kCorruption) would just re-read the same bad bytes.
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      backoff *= 2;
    }
    ++*retries;
    st = disk_->ReadPage(id, buf);
  }
  return st;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    total.logical_reads += s.stats.logical_reads;
    total.hits += s.stats.hits;
    total.disk_reads += s.stats.disk_reads;
    total.seq_disk_reads += s.stats.seq_disk_reads;
    total.rand_disk_reads += s.stats.rand_disk_reads;
    total.disk_writes += s.stats.disk_writes;
    total.evictions += s.stats.evictions;
    total.read_retries += s.stats.read_retries;
    total.coalesced_reads += s.stats.coalesced_reads;
  }
  total.prefetched = prefetched_.load(std::memory_order_relaxed);
  total.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  total.prefetch_wasted = prefetch_wasted_.load(std::memory_order_relaxed);
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    s.stats = BufferPoolStats{};
  }
  prefetched_.store(0, std::memory_order_relaxed);
  prefetch_hits_.store(0, std::memory_order_relaxed);
  prefetch_wasted_.store(0, std::memory_order_relaxed);
}

void BufferPool::RecordPrefetch() {
  prefetched_.fetch_add(1, std::memory_order_relaxed);
  if (mirror_.prefetched != nullptr) mirror_.prefetched->Increment();
}

void BufferPool::RecordPrefetchHit() {
  prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  if (mirror_.prefetch_hits != nullptr) mirror_.prefetch_hits->Increment();
}

void BufferPool::RecordPrefetchWasted(uint64_t n) {
  if (n == 0) return;
  prefetch_wasted_.fetch_add(n, std::memory_order_relaxed);
  if (mirror_.prefetch_wasted != nullptr) mirror_.prefetch_wasted->Increment(n);
}

size_t BufferPool::pinned_frames() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    const Shard& s = *shard;
    std::lock_guard<std::mutex> lock(s.mu);
    for (const Frame& f : s.frames) {
      if (f.page_id != kInvalidPageId && f.pin_count > 0) ++n;
    }
  }
  return n;
}

void BufferPool::Unpin(size_t shard_index, size_t frame_index) {
  Shard& s = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(s.mu);
  Frame& f = s.frames[frame_index];
  assert(f.pin_count > 0);
  --f.pin_count;
}

}  // namespace paradise
