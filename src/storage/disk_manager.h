// Disk: the virtual interface of the lowest storage layer, and DiskManager,
// its real implementation. The DiskManager owns the database file, allocates
// and frees pages (free pages form an on-disk linked list threaded through
// their first 8 bytes; pages the committed manifest's chain references are
// never handed out until a newer manifest stops referencing them, so a
// crash can always walk the recovered chain), and performs raw page I/O
// with per-page CRC32C verification. A dual-slot commit manifest (pages 1
// and 2) makes commits atomic under power loss: Commit() writes the
// alternate slot and fsyncs, and Open() adopts the newest slot whose CRC
// validates. All higher
// layers access pages through the BufferPool, which talks to a Disk* — so a
// FaultInjectingDiskManager (storage/fault_injection.h) can interpose on
// every page transfer without the upper layers noticing.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace paradise {

/// Abstract page-file interface. One concrete implementation (DiskManager)
/// plus decorators (FaultInjectingDiskManager).
class Disk {
 public:
  virtual ~Disk() = default;

  /// Creates a new database file (fails if it exists unless
  /// options.allow_overwrite), writes a fresh header and the first
  /// manifest, and makes the result durable.
  virtual Status Create(const std::string& path,
                        const StorageOptions& options) = 0;

  /// Opens an existing database file, validates its header (a format
  /// version other than page_header::kFormatVersion is NotSupported), and
  /// recovers the newest valid manifest slot.
  virtual Status Open(const std::string& path,
                      const StorageOptions& options) = 0;

  /// Commits current metadata (see Commit()) and closes the file.
  /// Idempotent; the handle is released even when the commit fails, and the
  /// failure is reported — callers must not assume Close() cannot fail.
  virtual Status Close() = 0;

  /// Closes the file WITHOUT committing: whatever the last successful
  /// Commit() (or Create()) made durable stays the recovered state. Used
  /// after a failure when committing could persist a half-written state.
  virtual void Abandon() = 0;

  /// Pushes buffered writes to the operating system (no durability barrier;
  /// see Sync()). DiskManager buffers nothing in user space, so for it this
  /// only checks that the file is open.
  virtual Status Flush() = 0;

  virtual bool is_open() const = 0;
  virtual size_t page_size() const = 0;
  virtual uint64_t page_count() const = 0;
  virtual const std::string& path() const = 0;

  /// Byte offset of page `id` in the file (checksum trailers included), for
  /// storage accounting and fault-injection tooling.
  virtual uint64_t PhysicalPageOffset(PageId id) const = 0;

  /// Reads page `id` into `buf` (page_size() bytes), verifying its checksum.
  /// A mismatch is kCorruption naming the page.
  virtual Status ReadPage(PageId id, char* buf) = 0;

  /// Writes page `id` from `buf` (page_size() bytes), appending a fresh
  /// checksum trailer.
  virtual Status WritePage(PageId id, const char* buf) = 0;

  /// Allocates one page, reusing the free list when possible. The page's
  /// contents are unspecified; callers must initialize it.
  virtual Result<PageId> AllocatePage() = 0;

  /// Allocates `n` physically contiguous pages at the end of the file and
  /// returns the first PageId. Used for fact-file extents.
  virtual Result<PageId> AllocateContiguous(uint64_t n) = 0;

  /// Returns page `id` to the free list. Freeing a page twice in one session
  /// is detected and reported as kCorruption.
  virtual Status FreePage(PageId id) = 0;

  /// Reads/writes the in-memory root-catalog ObjectId (persisted by the next
  /// Commit()).
  virtual ObjectId catalog_oid() const = 0;
  virtual void set_catalog_oid(ObjectId oid) = 0;

  /// Current free-list head (kInvalidPageId when empty), for scrub tooling.
  virtual PageId free_list_head() const = 0;

  /// Load-state flag carried in the manifest (page_header::kLoad*).
  virtual uint32_t load_state() const = 0;
  virtual void set_load_state(uint32_t state) = 0;

  /// Durability barrier: forces previously written pages down to stable
  /// storage (fsync). Does NOT commit metadata.
  virtual Status Sync() = 0;

  /// Atomically commits current metadata (page count, free list, catalog
  /// oid, load state) and makes it durable: writes the alternate manifest
  /// slot with the next epoch and fsyncs; a crash at any point leaves the
  /// previous commit recoverable.
  virtual Status Commit() = 0;

  /// Epoch of the most recent commit (0 before any; Create() commits
  /// epoch 1).
  virtual uint64_t commit_epoch() const = 0;

  /// Number of physical page reads/writes performed (for I/O accounting).
  virtual uint64_t reads_performed() const = 0;
  virtual uint64_t writes_performed() const = 0;
};

class DiskManager final : public Disk {
 public:
  DiskManager() = default;
  ~DiskManager() override;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  Status Create(const std::string& path, const StorageOptions& options) override;
  Status Open(const std::string& path, const StorageOptions& options) override;
  Status Close() override;
  void Abandon() override;
  Status Flush() override;

  bool is_open() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return fd_ >= 0;
  }
  size_t page_size() const override { return page_size_; }
  uint64_t page_count() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return page_count_;
  }
  const std::string& path() const override { return path_; }
  uint64_t PhysicalPageOffset(PageId id) const override {
    return id * stride_;
  }

  Status ReadPage(PageId id, char* buf) override;
  Status WritePage(PageId id, const char* buf) override;
  Result<PageId> AllocatePage() override;
  Result<PageId> AllocateContiguous(uint64_t n) override;
  Status FreePage(PageId id) override;

  ObjectId catalog_oid() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return catalog_oid_;
  }
  void set_catalog_oid(ObjectId oid) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    dirty_since_commit_ = dirty_since_commit_ || catalog_oid_ != oid;
    catalog_oid_ = oid;
  }
  PageId free_list_head() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return free_list_head_;
  }
  uint32_t load_state() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return load_state_;
  }
  void set_load_state(uint32_t state) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    dirty_since_commit_ = dirty_since_commit_ || load_state_ != state;
    load_state_ = state;
  }

  Status Sync() override;
  Status Commit() override;
  uint64_t commit_epoch() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return epoch_;
  }

  uint64_t reads_performed() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return reads_;
  }
  uint64_t writes_performed() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return writes_;
  }

 private:
  Status WriteHeader();
  Status ReadHeader();
  Status LoadManifest();
  Status CommitManifest();
  Status SyncFile();
  Status CheckPageId(PageId id) const;
  Status CheckWritable() const;

  /// Unlinks and returns the chain head, validating its next-link (a
  /// clobbered link is reported as kCorruption naming the free list).
  Result<PageId> PopFreeListHead();
  /// Writes `id`'s next-link (the current head) and makes it the new head.
  Status PushFreeListHead(PageId id);

  /// CRC32C over a page's data bytes extended with its encoded PageId, so a
  /// page written to the wrong slot also fails verification.
  uint32_t PageCrc(PageId id, const char* buf) const;

  /// Serializes every file operation and all mutable metadata. Page
  /// transfers are positional (preadv/pwritev), so they share no file offset;
  /// they still run under the lock, which also guards the page count they
  /// are checked against and the I/O counters. Recursive because public
  /// operations compose (Close→Commit, AllocatePage→ReadPage,
  /// FreePage→WritePage). The mutex is a leaf in the lock order: no code
  /// path calls back up into the pool while holding it.
  mutable std::recursive_mutex mu_;

  int fd_ = -1;
  std::string path_;
  size_t page_size_ = 0;
  uint64_t stride_ = 0;  // physical bytes per page (page_size_ + trailer)
  uint64_t page_count_ = 0;
  PageId free_list_head_ = kInvalidPageId;
  ObjectId catalog_oid_ = kInvalidObjectId;
  uint32_t load_state_ = page_header::kLoadCommitted;
  uint64_t epoch_ = 0;
  bool read_only_ = false;
  // True when any state the manifest covers (pages, free list, catalog oid,
  // load state) changed since the last commit. A clean Commit() is a
  // no-op, so a session that only reads never advances the epoch or touches
  // the file's manifest slots. Also set when recovery finds only one valid
  // slot, so the next commit restores dual-slot redundancy.
  bool dirty_since_commit_ = false;
  // Pages freed since open and not yet re-allocated; a second FreePage() of
  // any of them would corrupt the free list, so it is rejected instead.
  std::unordered_set<PageId> session_freed_;
  // Crash safety of the intrusive free list: the chain
  // the durable manifest records must stay byte-intact until a newer
  // manifest commits, or post-crash recovery would walk next-links through
  // pages that were reallocated and overwritten with data. Pages freed
  // since the last commit form the chain's head prefix and are dead in
  // every durable manifest, so AllocatePage may hand them out immediately;
  // `fresh_free_pages_` counts them. The durable suffix may only be popped
  // into `pending_reuse_` (the on-disk pages untouched) — once a commit
  // records the advanced head those pages are unreferenced by any durable
  // state and move to `reusable_` for actual reallocation. A crash loses
  // staged ids (the pages leak, which verify tolerates; a clean Close
  // re-chains them so nothing is lost on shutdown) but never corrupts the
  // committed chain.
  uint64_t fresh_free_pages_ = 0;
  std::vector<PageId> pending_reuse_;
  std::vector<PageId> reusable_;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;

  /// Registry latency histograms ("disk.read_micros" / "disk.write_micros" /
  /// "disk.sync_micros"), resolved at Create/Open when
  /// StorageOptions::metrics_enabled is set; null (one test per I/O) when
  /// metrics are off.
  Histogram* h_read_micros_ = nullptr;
  Histogram* h_write_micros_ = nullptr;
  Histogram* h_sync_micros_ = nullptr;
};

/// Reads the raw file header of `path` and returns StorageOptions matching
/// the file (its page size). Lets tooling open a database file without
/// knowing its page size in advance. A format version other than
/// page_header::kFormatVersion is NotSupported.
Result<StorageOptions> ProbeStorageOptions(const std::string& path);

}  // namespace paradise
