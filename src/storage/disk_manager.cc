#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"

namespace paradise {

namespace {
std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

// `n` bytes at `offset`, followed (when `trailer` is set) by the page's
// checksum trailer, in one preadv/pwritev. Returns the bytes moved, or -1
// with errno set; a short count is left to the caller to report.
ssize_t TransferAt(int fd, char* data, size_t n, char* trailer,
                   uint64_t offset, bool write) {
  iovec iov[2] = {{data, n}, {trailer, page_header::kPageTrailerBytes}};
  const int iovcnt = trailer != nullptr ? 2 : 1;
  const auto at = static_cast<off_t>(offset);
  ssize_t moved;
  do {
    moved = write ? ::pwritev(fd, iov, iovcnt, at)
                  : ::preadv(fd, iov, iovcnt, at);
  } while (moved < 0 && errno == EINTR);
  return moved;
}
ssize_t ReadAt(int fd, char* data, size_t n, char* trailer, uint64_t offset) {
  return TransferAt(fd, data, n, trailer, offset, false);
}
ssize_t WriteAt(int fd, const char* data, size_t n, const char* trailer,
                uint64_t offset) {
  return TransferAt(fd, const_cast<char*>(data), n,
                    const_cast<char*>(trailer), offset, true);
}

// Any header version but the one this build writes is a typed rejection:
// NotSupported, naming the field, so tooling can tell a file of another
// format apart from a damaged one.
Status CheckFormatVersion(uint32_t version, const std::string& path) {
  if (version == page_header::kFormatVersion) return Status::OK();
  return Status::NotSupported(
      "database file " + path + " has format_version " +
      std::to_string(version) + "; this build reads only version " +
      std::to_string(page_header::kFormatVersion));
}

bool AllZero(const char* buf, size_t n) {
  return std::all_of(buf, buf + n, [](char c) { return c == 0; });
}

int64_t MicrosNow() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// How many durable-chain pages one AllocatePage call unlinks for deferred
// reuse: large enough to amortize the manifest commit that makes them
// reusable, small enough to bound the page reads inside one allocation.
constexpr size_t kReuseBatch = 64;
}  // namespace

DiskManager::~DiskManager() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Best-effort close; errors are already reported via the Status API when
  // callers Close() explicitly.
  if (fd_ >= 0) (void)Close();
}

uint32_t DiskManager::PageCrc(PageId id, const char* buf) const {
  char encoded_id[8];
  EncodeFixed64(encoded_id, id);
  return Crc32cExtend(Crc32c(buf, page_size_), encoded_id, sizeof(encoded_id));
}

Status DiskManager::Create(const std::string& path,
                           const StorageOptions& options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(options.Validate());
  if (fd_ >= 0) {
    return Status::InvalidArgument("DiskManager already open");
  }
  if (options.read_only) {
    return Status::InvalidArgument("cannot create a database read-only");
  }
  fd_ = ::open(path.c_str(),
               O_RDWR | O_CREAT | O_CLOEXEC |
                   (options.allow_overwrite ? O_TRUNC : O_EXCL),
               0644);
  if (fd_ < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("database file exists: " + path);
    }
    return Status::IOError(ErrnoMessage("cannot create", path));
  }
  path_ = path;
  page_size_ = options.page_size;
  if (options.metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    h_read_micros_ = reg.GetHistogram("disk.read_micros");
    h_write_micros_ = reg.GetHistogram("disk.write_micros");
    h_sync_micros_ = reg.GetHistogram("disk.sync_micros");
  }
  stride_ = page_header::PhysicalStride(page_size_);
  free_list_head_ = kInvalidPageId;
  catalog_oid_ = kInvalidObjectId;
  load_state_ = page_header::kLoadCommitted;
  epoch_ = 0;
  read_only_ = false;
  dirty_since_commit_ = true;  // the fresh header must reach a first commit
  session_freed_.clear();
  fresh_free_pages_ = 0;
  pending_reuse_.clear();
  reusable_.clear();
  // Header + the two manifest slot pages. The header is immutable from here
  // on; all mutable metadata lives in the manifest.
  page_count_ = page_header::kFirstUserPage;
  PARADISE_RETURN_IF_ERROR(WriteHeader());
  std::vector<char> zeros(page_size_, 0);
  PARADISE_RETURN_IF_ERROR(
      WritePage(page_header::kManifestSlotPages[0], zeros.data()));
  // Commits epoch 1 into slot page 2 and fsyncs, so even a freshly created
  // empty file recovers cleanly.
  return Commit();
}

Status DiskManager::Open(const std::string& path,
                         const StorageOptions& options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(options.Validate());
  if (fd_ >= 0) {
    return Status::InvalidArgument("DiskManager already open");
  }
  read_only_ = options.read_only;
  fd_ = ::open(path.c_str(), (read_only_ ? O_RDONLY : O_RDWR) | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  path_ = path;
  page_size_ = options.page_size;
  if (options.metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    h_read_micros_ = reg.GetHistogram("disk.read_micros");
    h_write_micros_ = reg.GetHistogram("disk.write_micros");
    h_sync_micros_ = reg.GetHistogram("disk.sync_micros");
  }
  load_state_ = page_header::kLoadCommitted;
  epoch_ = 0;
  dirty_since_commit_ = false;
  session_freed_.clear();
  fresh_free_pages_ = 0;  // the whole recovered chain is durable: frozen
  pending_reuse_.clear();
  reusable_.clear();
  Status st = ReadHeader();
  if (!st.ok()) {
    ::close(fd_);
    fd_ = -1;
    return st;
  }
  // A crash between the data fsync and the metadata commit leaves fully
  // durable pages past the committed page count: the file was extended and
  // synced, only the commit never landed. Adopt the physical length as a
  // floor so those orphaned pages stay addressable (in-place-updated
  // structures may already reference them) and, crucially, are never handed
  // out a second time by a later allocation.
  struct stat file_stat;
  if (::fstat(fd_, &file_stat) == 0 && file_stat.st_size > 0) {
    const uint64_t physical =
        static_cast<uint64_t>(file_stat.st_size) / stride_;
    if (physical > page_count_) {
      page_count_ = physical;
      // The manifest under-counts; record the corrected count next commit.
      if (!read_only_) dirty_since_commit_ = true;
    }
  }
  return Status::OK();
}

Status DiskManager::Close() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (fd_ < 0) return Status::OK();
  // Commit current metadata, then release the handle. Every failure mode
  // is propagated, but the handle is released regardless, so Close() stays
  // idempotent.
  Status st = read_only_ ? Status::OK() : Commit();
  if (st.ok() && !read_only_ && !reusable_.empty()) {
    // Staged-for-reuse pages are referenced by no durable state: their ids
    // would be lost with this process. Chain them back into the free list
    // (safe — writing a link into an unreferenced page cannot break the
    // committed chain) and commit once more so a clean shutdown leaks
    // nothing.
    while (st.ok() && !reusable_.empty()) {
      st = PushFreeListHead(reusable_.back());
      if (st.ok()) {
        reusable_.pop_back();
        ++fresh_free_pages_;
      }
    }
    if (st.ok()) st = Commit();
  }
  if (::close(fd_) != 0 && st.ok()) {
    st = Status::IOError(ErrnoMessage("close failed", path_));
  }
  fd_ = -1;
  return st;
}

void DiskManager::Abandon() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
}

Status DiskManager::Flush() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (fd_ < 0) return Status::InvalidArgument("DiskManager not open");
  // Every transfer is a positional system call: nothing is buffered here.
  return Status::OK();
}

Status DiskManager::CheckPageId(PageId id) const {
  if (id == kInvalidPageId || id >= page_count_) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " outside file of " +
                              std::to_string(page_count_) + " pages");
  }
  return Status::OK();
}

Status DiskManager::CheckWritable() const {
  if (fd_ < 0) return Status::InvalidArgument("DiskManager not open");
  if (read_only_) {
    return Status::InvalidArgument("database opened read-only: " + path_);
  }
  return Status::OK();
}

Status DiskManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (fd_ < 0) return Status::InvalidArgument("DiskManager not open");
  PARADISE_RETURN_IF_ERROR(CheckPageId(id));
  const int64_t t0 = h_read_micros_ != nullptr ? MicrosNow() : 0;
  char trailer[page_header::kPageTrailerBytes];
  const ssize_t got = ReadAt(fd_, buf, page_size_, trailer, id * stride_);
  if (got < 0) return Status::IOError(ErrnoMessage("read failed", path_));
  if (static_cast<size_t>(got) < page_size_) {
    return Status::IOError("short read of page " + std::to_string(id) +
                           " in " + path_);
  }
  if (static_cast<size_t>(got) < page_size_ + sizeof(trailer)) {
    return Status::IOError("short trailer read of page " +
                           std::to_string(id) + " in " + path_);
  }
  if (AllZero(trailer, sizeof(trailer))) {
    // Allocated-but-never-written page (sparse extent tail): all-zero data
    // with an all-zero trailer is accepted as an uninitialized page.
    if (!AllZero(buf, page_size_)) {
      return Status::Corruption("checksum missing on non-empty page " +
                                std::to_string(id) + " in " + path_);
    }
  } else {
    const uint32_t stored = UnmaskCrc32c(DecodeFixed32(trailer));
    const uint32_t computed = PageCrc(id, buf);
    if (stored != computed) {
      return Status::Corruption(
          "checksum mismatch on page " + std::to_string(id) + " in " +
          path_ + " (stored " + std::to_string(stored) + ", computed " +
          std::to_string(computed) + ")");
    }
  }
  ++reads_;
  if (h_read_micros_ != nullptr) {
    h_read_micros_->Record(static_cast<uint64_t>(MicrosNow() - t0));
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const char* buf) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(CheckWritable());
  PARADISE_RETURN_IF_ERROR(CheckPageId(id));
  const int64_t t0 = h_write_micros_ != nullptr ? MicrosNow() : 0;
  char trailer[page_header::kPageTrailerBytes] = {};
  EncodeFixed32(trailer, MaskCrc32c(PageCrc(id, buf)));
  const ssize_t put = WriteAt(fd_, buf, page_size_, trailer, id * stride_);
  if (put < 0) return Status::IOError(ErrnoMessage("write failed", path_));
  if (static_cast<size_t>(put) != stride_) {
    return Status::IOError("short write of page " + std::to_string(id) +
                           " in " + path_);
  }
  ++writes_;
  dirty_since_commit_ = true;
  if (h_write_micros_ != nullptr) {
    h_write_micros_->Record(static_cast<uint64_t>(MicrosNow() - t0));
  }
  return Status::OK();
}

Result<PageId> DiskManager::PopFreeListHead() {
  const PageId id = free_list_head_;
  // The first 8 bytes of a free page hold the next free PageId.
  std::vector<char> buf(page_size_);
  PARADISE_RETURN_IF_ERROR(ReadPage(id, buf.data()));
  const PageId next = DecodeFixed64(buf.data());
  if (next != kInvalidPageId &&
      (next == id || next >= page_count_ ||
       next < page_header::kFirstUserPage)) {
    return Status::Corruption(
        "free list corrupted: free page " + std::to_string(id) +
        " links to invalid page " + std::to_string(next) + " in " + path_);
  }
  free_list_head_ = next;
  dirty_since_commit_ = true;
  return id;
}

Status DiskManager::PushFreeListHead(PageId id) {
  std::vector<char> buf(page_size_, 0);
  EncodeFixed64(buf.data(), free_list_head_);
  PARADISE_RETURN_IF_ERROR(WritePage(id, buf.data()));
  free_list_head_ = id;
  dirty_since_commit_ = true;
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(CheckWritable());
  // Pages freed since the last commit sit at the head of the chain and no
  // durable manifest references them: reuse them immediately.
  if (free_list_head_ != kInvalidPageId && fresh_free_pages_ > 0) {
    PARADISE_ASSIGN_OR_RETURN(const PageId id, PopFreeListHead());
    --fresh_free_pages_;
    session_freed_.erase(id);
    return id;
  }
  if (!reusable_.empty()) {
    const PageId id = reusable_.back();
    reusable_.pop_back();
    session_freed_.erase(id);
    return id;
  }
  if (free_list_head_ != kInvalidPageId) {
    // Only pages the DURABLE manifest's chain references remain. Their
    // bytes are the next-links a post-crash recovery walks, so they must
    // not be handed out (and overwritten) while that manifest is live.
    // Unlink a batch without touching the pages themselves; once a commit
    // records the advanced head they become unreferenced and reusable.
    // When nothing else is awaiting commit, that commit is pure free-list
    // maintenance and can happen right here; mid-workload (metadata we
    // must not commit halfway) the pages stay staged until the caller's
    // next checkpoint and the file grows instead.
    const bool quiescent = !dirty_since_commit_ && epoch_ > 0;
    size_t staged = 0;
    while (free_list_head_ != kInvalidPageId && staged < kReuseBatch) {
      PARADISE_ASSIGN_OR_RETURN(const PageId id, PopFreeListHead());
      pending_reuse_.push_back(id);
      ++staged;
    }
    if (quiescent) {
      PARADISE_RETURN_IF_ERROR(Commit());  // promotes pending_reuse_
      const PageId id = reusable_.back();
      reusable_.pop_back();
      session_freed_.erase(id);
      return id;
    }
  }
  return AllocateContiguous(1);
}

Result<PageId> DiskManager::AllocateContiguous(uint64_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(CheckWritable());
  if (n == 0) return Status::InvalidArgument("cannot allocate 0 pages");
  const PageId first = page_count_;
  // Extend the file by writing the last new page; intermediate pages are
  // materialized lazily by the filesystem and read back as uninitialized
  // zero pages until first written.
  const uint64_t last = first + n - 1;
  page_count_ = last + 1;
  std::vector<char> zeros(page_size_, 0);
  Status st = WritePage(last, zeros.data());
  if (!st.ok()) {
    page_count_ = first;
    return st;
  }
  return first;
}

Status DiskManager::FreePage(PageId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(CheckWritable());
  PARADISE_RETURN_IF_ERROR(CheckPageId(id));
  if (id < page_header::kFirstUserPage) {
    return Status::InvalidArgument(
        "cannot free reserved page " + std::to_string(id) +
        (id == 0 ? " (file header)" : " (commit manifest)"));
  }
  if (!session_freed_.insert(id).second) {
    return Status::Corruption("double free of page " + std::to_string(id) +
                              " in " + path_);
  }
  Status st = PushFreeListHead(id);
  if (!st.ok()) {
    session_freed_.erase(id);
    return st;
  }
  ++fresh_free_pages_;
  return Status::OK();
}

Status DiskManager::WriteHeader() {
  std::vector<char> buf(page_size_, 0);
  std::memcpy(buf.data() + page_header::kMagicOffset, page_header::kMagic,
              sizeof(page_header::kMagic));
  EncodeFixed32(buf.data() + page_header::kPageSizeOffset,
                static_cast<uint32_t>(page_size_));
  EncodeFixed64(buf.data() + page_header::kPageCountOffset, page_count_);
  EncodeFixed64(buf.data() + page_header::kFreeListOffset, free_list_head_);
  EncodeFixed64(buf.data() + page_header::kCatalogOffset, catalog_oid_);
  EncodeFixed32(buf.data() + page_header::kVersionOffset,
                page_header::kFormatVersion);
  char trailer[page_header::kPageTrailerBytes] = {};
  EncodeFixed32(trailer, MaskCrc32c(PageCrc(0, buf.data())));
  if (WriteAt(fd_, buf.data(), page_size_, trailer, 0) !=
      static_cast<ssize_t>(stride_)) {
    return Status::IOError("failed to write header of " + path_);
  }
  ++writes_;
  return Status::OK();
}

Status DiskManager::ReadHeader() {
  // Read only the fixed-size header prefix so a page-size mismatch is
  // reported as InvalidArgument rather than a short read.
  std::vector<char> buf(page_header::kHeaderBytes);
  if (ReadAt(fd_, buf.data(), buf.size(), nullptr, 0) !=
      static_cast<ssize_t>(buf.size())) {
    return Status::Corruption("database file too small: " + path_);
  }
  ++reads_;
  if (std::memcmp(buf.data() + page_header::kMagicOffset, page_header::kMagic,
                  sizeof(page_header::kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path_);
  }
  const uint32_t stored_page_size =
      DecodeFixed32(buf.data() + page_header::kPageSizeOffset);
  if (stored_page_size != page_size_) {
    return Status::InvalidArgument(
        "page size mismatch: file has " + std::to_string(stored_page_size) +
        ", options specify " + std::to_string(page_size_));
  }
  PARADISE_RETURN_IF_ERROR(CheckFormatVersion(
      DecodeFixed32(buf.data() + page_header::kVersionOffset), path_));
  stride_ = page_header::PhysicalStride(page_size_);
  // Verify the whole header page against its trailer before trusting it.
  std::vector<char> page(page_size_);
  char trailer[page_header::kPageTrailerBytes];
  if (ReadAt(fd_, page.data(), page_size_, trailer, 0) !=
      static_cast<ssize_t>(stride_)) {
    return Status::Corruption("database file truncated in header: " + path_);
  }
  const uint32_t stored = UnmaskCrc32c(DecodeFixed32(trailer));
  const uint32_t computed = PageCrc(0, page.data());
  if (stored != computed) {
    return Status::Corruption("checksum mismatch on page 0 (header) in " +
                              path_);
  }
  // The header fields beyond page size/version are a snapshot from
  // Create(); the committed manifest is authoritative.
  return LoadManifest();
}

Status DiskManager::LoadManifest() {
  namespace ph = page_header;
  struct Slot {
    bool valid = false;
    uint64_t epoch = 0;
    uint64_t page_count = 0;
    PageId free_list = kInvalidPageId;
    ObjectId catalog = kInvalidObjectId;
    uint32_t load_state = ph::kLoadCommitted;
  };
  Slot best;
  int valid_slots = 0;
  // The slots are read raw, ignoring the page trailer: a torn manifest write
  // damages the trailer too, and the record is self-validating through its
  // internal CRC. An unparseable slot is simply not a candidate — recovery
  // falls back to the other slot.
  std::vector<char> buf(page_size_);
  for (PageId sid : ph::kManifestSlotPages) {
    if (ReadAt(fd_, buf.data(), page_size_, nullptr, sid * stride_) !=
        static_cast<ssize_t>(page_size_)) {
      continue;
    }
    ++reads_;
    if (std::memcmp(buf.data() + ph::kManifestMagicOffset, ph::kManifestMagic,
                    sizeof(ph::kManifestMagic)) != 0) {
      continue;
    }
    const uint32_t stored =
        UnmaskCrc32c(DecodeFixed32(buf.data() + ph::kManifestCrcOffset));
    if (stored != Crc32c(buf.data(), ph::kManifestCrcOffset)) continue;
    Slot s;
    s.valid = true;
    s.epoch = DecodeFixed64(buf.data() + ph::kManifestEpochOffset);
    s.page_count = DecodeFixed64(buf.data() + ph::kManifestPageCountOffset);
    s.free_list = DecodeFixed64(buf.data() + ph::kManifestFreeListOffset);
    s.catalog = DecodeFixed64(buf.data() + ph::kManifestCatalogOffset);
    s.load_state = DecodeFixed32(buf.data() + ph::kManifestLoadStateOffset);
    ++valid_slots;
    if (!best.valid || s.epoch > best.epoch) best = s;
  }
  if (!best.valid) {
    return Status::Corruption(
        "no valid commit manifest in " + path_ +
        " (file was never committed, or both manifest slots are damaged)");
  }
  if (best.page_count < ph::kFirstUserPage) {
    return Status::Corruption("manifest in " + path_ +
                              " declares implausible page count " +
                              std::to_string(best.page_count));
  }
  if (best.free_list != kInvalidPageId &&
      (best.free_list >= best.page_count ||
       best.free_list < ph::kFirstUserPage)) {
    return Status::Corruption("manifest in " + path_ +
                              " has free-list head " +
                              std::to_string(best.free_list) +
                              " outside the file");
  }
  epoch_ = best.epoch;
  page_count_ = best.page_count;
  free_list_head_ = best.free_list;
  catalog_oid_ = best.catalog;
  load_state_ = best.load_state;
  // A single surviving slot (fresh file, torn commit, or damaged slot) loses
  // the dual-slot redundancy; mark the session dirty so the next commit
  // rewrites the alternate slot and restores it.
  if (valid_slots < 2 && !read_only_) dirty_since_commit_ = true;
  return Status::OK();
}

Status DiskManager::CommitManifest() {
  namespace ph = page_header;
  const uint64_t next_epoch = epoch_ + 1;
  std::vector<char> buf(page_size_, 0);
  std::memcpy(buf.data() + ph::kManifestMagicOffset, ph::kManifestMagic,
              sizeof(ph::kManifestMagic));
  EncodeFixed64(buf.data() + ph::kManifestEpochOffset, next_epoch);
  EncodeFixed64(buf.data() + ph::kManifestPageCountOffset, page_count_);
  EncodeFixed64(buf.data() + ph::kManifestFreeListOffset, free_list_head_);
  EncodeFixed64(buf.data() + ph::kManifestCatalogOffset, catalog_oid_);
  EncodeFixed32(buf.data() + ph::kManifestLoadStateOffset, load_state_);
  EncodeFixed32(buf.data() + ph::kManifestCrcOffset,
                MaskCrc32c(Crc32c(buf.data(), ph::kManifestCrcOffset)));
  PARADISE_RETURN_IF_ERROR(
      WritePage(ph::ManifestSlotPage(next_epoch), buf.data()));
  epoch_ = next_epoch;
  return Status::OK();
}

Status DiskManager::SyncFile() {
  const int64_t t0 = h_sync_micros_ != nullptr ? MicrosNow() : 0;
  if (::fsync(fd_) != 0) {
    return Status::IOError(ErrnoMessage("fsync failed", path_));
  }
  if (h_sync_micros_ != nullptr) {
    h_sync_micros_->Record(static_cast<uint64_t>(MicrosNow() - t0));
  }
  return Status::OK();
}

Status DiskManager::Sync() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (fd_ < 0) return Status::InvalidArgument("DiskManager not open");
  if (read_only_) return Status::OK();
  return SyncFile();
}

Status DiskManager::Commit() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(CheckWritable());
  // Nothing changed since the last commit: skipping keeps a read-only usage
  // pattern (open, query, close) from churning the epoch — and guarantees a
  // refused Open() leaves the file byte-identical.
  if (!dirty_since_commit_ && epoch_ > 0) return Status::OK();
  Status st = CommitManifest();
  if (st.ok()) st = SyncFile();
  // Every page still on the chain is now (or, on failure, may be) recorded
  // by a durable manifest: its link bytes are frozen until a later commit
  // advances past it.
  fresh_free_pages_ = 0;
  if (!st.ok()) return st;
  // Pages staged by AllocatePage fell out of the chain just committed: no
  // durable state references them any more, so they may be handed out and
  // overwritten. (A crash from here on merely leaks them.)
  reusable_.insert(reusable_.end(), pending_reuse_.begin(),
                   pending_reuse_.end());
  pending_reuse_.clear();
  dirty_since_commit_ = false;
  return Status::OK();
}

Result<StorageOptions> ProbeStorageOptions(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open", path));
  }
  char buf[page_header::kHeaderBytes];
  const ssize_t got = ReadAt(fd, buf, sizeof(buf), nullptr, 0);
  ::close(fd);
  if (got != static_cast<ssize_t>(sizeof(buf))) {
    return Status::Corruption("database file too small: " + path);
  }
  if (std::memcmp(buf + page_header::kMagicOffset, page_header::kMagic,
                  sizeof(page_header::kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  StorageOptions options;
  options.page_size = DecodeFixed32(buf + page_header::kPageSizeOffset);
  Status st = CheckFormatVersion(
      DecodeFixed32(buf + page_header::kVersionOffset), path);
  if (st.ok()) st = options.Validate();
  PARADISE_RETURN_IF_ERROR(st.WithContext("probing header of " + path));
  return options;
}

}  // namespace paradise
