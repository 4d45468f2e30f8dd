#include "storage/storage_manager.h"

#include "common/coding.h"
#include "storage/scrub.h"

namespace paradise {

StorageManager::~StorageManager() {
  if (is_open()) (void)Close();
}

std::unique_ptr<Disk> StorageManager::MakeDisk() const {
  std::unique_ptr<Disk> disk = std::make_unique<DiskManager>();
  if (options_.wrap_disk) disk = options_.wrap_disk(std::move(disk));
  return disk;
}

Status StorageManager::Create(const std::string& path,
                              const StorageOptions& options) {
  if (is_open()) return Status::InvalidArgument("StorageManager already open");
  options_ = options;
  disk_ = MakeDisk();
  PARADISE_RETURN_IF_ERROR(disk_->Create(path, options));
  pool_ = std::make_unique<BufferPool>(disk_.get(), options);
  objects_ = std::make_unique<LargeObjectStore>(pool_.get());
  if (options.io_pool_threads > 0) {
    io_pool_ = std::make_unique<IoPool>(options.io_pool_threads);
  }
  catalog_.clear();
  catalog_dirty_ = false;
  stale_catalog_oid_ = kInvalidObjectId;
  return Status::OK();
}

Status StorageManager::Open(const std::string& path,
                            const StorageOptions& options) {
  if (is_open()) return Status::InvalidArgument("StorageManager already open");
  options_ = options;
  disk_ = MakeDisk();
  PARADISE_RETURN_IF_ERROR(disk_->Open(path, options));
  pool_ = std::make_unique<BufferPool>(disk_.get(), options);
  objects_ = std::make_unique<LargeObjectStore>(pool_.get());
  if (options.io_pool_threads > 0) {
    io_pool_ = std::make_unique<IoPool>(options.io_pool_threads);
  }
  stale_catalog_oid_ = kInvalidObjectId;
  Status st = LoadCatalog();
  if (st.ok() && options_.scrub_on_open) {
    ScrubReport report;
    st = ScrubStorage(this, &report);
    if (st.ok() && !report.clean()) {
      st = Status::Corruption(
          "scrub found " + std::to_string(report.issues.size()) +
          " issue(s) in " + path + "; first: " + report.issues.front());
    }
  }
  if (!st.ok()) {
    // A file this manager refused to open must never be mutated by it:
    // release the handle without committing, or the destructor's Close()
    // would publish a fresh manifest epoch on a file we just rejected.
    disk_->Abandon();
    return st;
  }
  return Status::OK();
}

Status StorageManager::Close() {
  if (!is_open()) return Status::OK();
  // Stop background I/O for good before any shutdown step: a prefetch task
  // running after the disk closes would read through a dead handle.
  if (io_pool_ != nullptr) io_pool_->Shutdown();
  // Even when the final checkpoint fails, the file handle must still be
  // released — otherwise a fault during shutdown leaks the descriptor and
  // leaves the manager wedged in the "open" state. First error wins. A
  // failed checkpoint is NOT retried inside disk Close(): the last durable
  // commit stays the recovered state.
  Status st = options_.read_only ? Status::OK() : Checkpoint();
  Status close_st = st.ok() ? disk_->Close() : (disk_->Abandon(), Status::OK());
  return st.ok() ? close_st : st;
}

Status StorageManager::SetRoot(const std::string& name, uint64_t value) {
  catalog_[name] = value;
  catalog_dirty_ = true;
  return Status::OK();
}

Result<uint64_t> StorageManager::GetRoot(const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no catalog entry named '" + name + "'");
  }
  return it->second;
}

Status StorageManager::RemoveRoot(const std::string& name) {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no catalog entry named '" + name + "'");
  }
  catalog_.erase(it);
  catalog_dirty_ = true;
  return Status::OK();
}

Status StorageManager::Checkpoint() {
  // Durable-commit ordering contract (DESIGN.md "Crash consistency"):
  //   1. rewrite the catalog blob copy-on-write — never overwriting the blob
  //      the last committed manifest points to;
  //   2. flush every dirty page so the file holds all data the new commit
  //      will reference;
  //   3. Sync: fsync the data down to stable storage;
  //   4. Commit: write the alternate manifest slot naming the new catalog,
  //      and fsync again;
  //   5. only now free the superseded catalog blob. The resulting free-list
  //      update rides in the next commit — a crash meanwhile merely leaks
  //      those pages, it never dangles a committed pointer.
  // Every step mutates only state the durable manifest does not yet
  // reference, so a crash anywhere leaves the previous commit intact.
  // Background reads never dirty pages, but quiescing the I/O pool first
  // keeps the flush-sync-commit sequence free of concurrent pool traffic.
  QuiesceIo();
  PARADISE_RETURN_IF_ERROR(PersistCatalog());
  PARADISE_RETURN_IF_ERROR(pool_->FlushAll());
  PARADISE_RETURN_IF_ERROR(disk_->Sync());
  PARADISE_RETURN_IF_ERROR(disk_->Commit());
  return FreeStaleCatalog();
}

Status StorageManager::FlushAndEvictAll() {
  // Writes everything out (including a fresh copy-on-write catalog blob when
  // dirty) but commits nothing: the catalog is never persisted "ahead" of
  // the data pages it references, because only Checkpoint()/Close() publish
  // a new catalog pointer — and they flush data first (see Checkpoint()).
  // Quiesce read-ahead first: a background fetch landing between the evict
  // sweep and its completion would silently re-warm the "cold" pool.
  QuiesceIo();
  PARADISE_RETURN_IF_ERROR(PersistCatalog());
  return pool_->FlushAndEvictAll();
}

uint64_t StorageManager::FileSizeBytes() const {
  // PhysicalPageOffset(page_count) accounts for the per-page checksum
  // trailers, which page_count * page_size would under-report.
  return disk_->PhysicalPageOffset(disk_->page_count());
}

namespace {
// Catalog serialization: fixed32 entry count, then per entry
// fixed32 name length + name bytes + fixed64 value.
std::string SerializeCatalog(const std::map<std::string, uint64_t>& catalog) {
  std::string out;
  char scratch[8];
  EncodeFixed32(scratch, static_cast<uint32_t>(catalog.size()));
  out.append(scratch, 4);
  for (const auto& [name, value] : catalog) {
    EncodeFixed32(scratch, static_cast<uint32_t>(name.size()));
    out.append(scratch, 4);
    out.append(name);
    EncodeFixed64(scratch, value);
    out.append(scratch, 8);
  }
  return out;
}
}  // namespace

Status StorageManager::LoadCatalog() {
  catalog_.clear();
  catalog_dirty_ = false;
  const ObjectId oid = disk_->catalog_oid();
  if (oid == kInvalidObjectId) return Status::OK();
  PARADISE_ASSIGN_OR_RETURN(std::string blob, objects_->Read(oid));
  if (blob.size() < 4) return Status::Corruption("catalog blob too small");
  const char* p = blob.data();
  const char* end = blob.data() + blob.size();
  const uint32_t count = DecodeFixed32(p);
  p += 4;
  for (uint32_t i = 0; i < count; ++i) {
    if (p + 4 > end) return Status::Corruption("truncated catalog entry");
    const uint32_t name_len = DecodeFixed32(p);
    p += 4;
    if (p + name_len + 8 > end) {
      return Status::Corruption("truncated catalog entry");
    }
    std::string name(p, name_len);
    p += name_len;
    const uint64_t value = DecodeFixed64(p);
    p += 8;
    catalog_[std::move(name)] = value;
  }
  return Status::OK();
}

Status StorageManager::PersistCatalog() {
  if (!catalog_dirty_) return Status::OK();
  const std::string blob = SerializeCatalog(catalog_);
  const ObjectId old = disk_->catalog_oid();
  // Copy-on-write: the blob named by the last committed manifest must stay
  // byte-identical until a newer manifest lands, or a crash between the two
  // would recover a manifest whose catalog pages were clobbered.
  PARADISE_ASSIGN_OR_RETURN(const ObjectId oid, objects_->Create(blob));
  disk_->set_catalog_oid(oid);
  if (old != kInvalidObjectId) {
    if (stale_catalog_oid_ == kInvalidObjectId) {
      stale_catalog_oid_ = old;  // committed blob: defer until after Commit
    } else {
      // `old` was written after the last commit and is referenced by no
      // manifest, so it can be recycled immediately.
      PARADISE_RETURN_IF_ERROR(objects_->Free(old));
    }
  }
  catalog_dirty_ = false;
  return Status::OK();
}

Status StorageManager::FreeStaleCatalog() {
  if (stale_catalog_oid_ == kInvalidObjectId) return Status::OK();
  const ObjectId oid = stale_catalog_oid_;
  stale_catalog_oid_ = kInvalidObjectId;
  return objects_->Free(oid).WithContext(
      "recycling superseded catalog object");
}

}  // namespace paradise
