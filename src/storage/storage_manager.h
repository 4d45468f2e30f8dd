// StorageManager: facade tying together the disk manager, the buffer pool
// and the large-object store, plus a small persistent name→id catalog so
// database structures (fact files, B-trees, arrays) can be found again after
// reopening the file. This is the library's SHORE substitute (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/io_pool.h"
#include "storage/large_object.h"

namespace paradise {

class StorageManager {
 public:
  StorageManager() = default;
  ~StorageManager();

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Creates a new database file.
  Status Create(const std::string& path, const StorageOptions& options);

  /// Opens an existing database file and loads the root catalog.
  Status Open(const std::string& path, const StorageOptions& options);

  /// Runs a final Checkpoint() and closes the file. Idempotent. On
  /// read-only managers, simply releases the handle.
  Status Close();

  bool is_open() const { return disk_ != nullptr && disk_->is_open(); }

  BufferPool* pool() { return pool_.get(); }
  Disk* disk() { return disk_.get(); }
  const Disk* disk() const { return disk_.get(); }
  LargeObjectStore* objects() { return objects_.get(); }
  const StorageOptions& options() const { return options_; }

  /// Commit epoch of the manifest slot currently on disk. Advances on every
  /// durable commit (Checkpoint/Close of a dirtied file) and versions
  /// anything derived from the file's contents — notably cached query
  /// results (query/result_cache.h).
  uint64_t commit_epoch() const { return disk_->commit_epoch(); }

  /// Background I/O pool serving chunk read-ahead, or nullptr when
  /// options().io_pool_threads == 0.
  IoPool* io_pool() { return io_pool_.get(); }

  /// Blocks until the background I/O pool is idle (no-op without a pool).
  /// Called before cache-dropping and commit operations; also available to
  /// callers that need a quiescent pool (e.g. Database::DropCaches).
  void QuiesceIo() {
    if (io_pool_ != nullptr) io_pool_->Drain();
  }

  /// Associates `name` with a page/object id in the persistent catalog.
  Status SetRoot(const std::string& name, uint64_t value);

  /// Looks up a catalog entry.
  Result<uint64_t> GetRoot(const std::string& name) const;

  bool HasRoot(const std::string& name) const {
    return catalog_.contains(name);
  }

  /// Removes a catalog entry (NotFound if absent).
  Status RemoveRoot(const std::string& name);

  /// All catalog entries, for introspection tools.
  const std::map<std::string, uint64_t>& catalog() const { return catalog_; }

  /// Durably commits the current state without closing: persists the
  /// catalog (copy-on-write), flushes dirty pages, fsyncs, and commits the
  /// manifest. After a successful Checkpoint a crash at any later point
  /// recovers exactly this state.
  Status Checkpoint();

  /// Cold-run protocol: flush everything and empty the buffer pool. NOT a
  /// durability point — nothing is fsynced or committed; use Checkpoint()
  /// for that.
  Status FlushAndEvictAll();

  /// Load-state flag stored in the commit manifest (page_header::kLoad*);
  /// persisted by the next Checkpoint()/Close().
  uint32_t load_state() const { return disk_->load_state(); }
  void set_load_state(uint32_t state) { disk_->set_load_state(state); }

  /// Total file size in bytes (for storage-footprint reporting).
  uint64_t FileSizeBytes() const;

 private:
  Status LoadCatalog();
  Status PersistCatalog();
  Status FreeStaleCatalog();

  /// Builds the (possibly wrapped) disk stack per options_.wrap_disk.
  std::unique_ptr<Disk> MakeDisk() const;

  StorageOptions options_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<BufferPool> pool_;
  // Members destroy in reverse declaration order, so the I/O pool — whose
  // workers read through pool_ and disk_ — must be declared after both to be
  // torn down first.
  std::unique_ptr<IoPool> io_pool_;
  std::unique_ptr<LargeObjectStore> objects_;
  std::map<std::string, uint64_t> catalog_;
  bool catalog_dirty_ = false;
  // Catalog blob named by the last committed manifest, superseded by a
  // copy-on-write rewrite but not yet safe to free (see Checkpoint()).
  ObjectId stale_catalog_oid_ = kInvalidObjectId;
};

}  // namespace paradise
