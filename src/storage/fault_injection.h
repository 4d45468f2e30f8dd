// FaultInjectingDiskManager: a Disk decorator that injects storage faults —
// read/write errors, on-disk bit flips, torn writes, close-time flush
// failures, fsync failures, and whole-machine power loss — deterministically
// (seeded PRNG plus one-shot countdowns) so the fault-testing suite can
// prove every layer above the disk either retries to the correct answer or
// fails with a descriptive Status, never a crash or a silently wrong result.
//
// Faults are injected at the Disk boundary the BufferPool talks to.
// Corruption faults (bit flips, torn writes) are applied to the underlying
// file itself, below the inner DiskManager's checksum layer, so they are
// surfaced exactly the way real media corruption is: as kCorruption from
// checksum verification on the next read of the page.
//
// The power-loss mode drives the crash-point sweep (tests/
// crash_recovery_test.cc): after a chosen number of mutating disk operations
// the wrapper rolls the file back to its last durability barrier (modeling
// the loss of everything the OS had not fsynced) and fails all further I/O,
// so reopening the file exercises exactly the state a real crash would
// leave behind.
//
// Install via StorageOptions::wrap_disk:
//   FaultInjectingDiskManager* faults = nullptr;
//   options.storage.wrap_disk = [&](std::unique_ptr<Disk> inner) {
//     auto w = std::make_unique<FaultInjectingDiskManager>(std::move(inner));
//     faults = w.get();
//     return std::unique_ptr<Disk>(std::move(w));
//   };
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace paradise {

/// Fault schedule. Countdown fields are 1-based one-shot triggers counted in
/// calls seen by this wrapper (0 = disabled); probabilistic fields draw from
/// the seeded PRNG per call. All injections respect [min_page, max_page] and
/// stop once `max_injected_faults` have fired, which makes probabilistic
/// faults transient: bounded retry eventually succeeds.
struct FaultInjectionOptions {
  uint64_t seed = 42;

  // Probabilistic faults (0.0 disables).
  double read_error_probability = 0.0;
  double write_error_probability = 0.0;
  double read_bit_flip_probability = 0.0;

  // One-shot countdowns: fire on exactly the Nth read/write seen.
  uint64_t fail_nth_read = 0;
  uint64_t fail_nth_write = 0;
  uint64_t flip_bit_on_nth_read = 0;
  uint64_t torn_write_on_nth_write = 0;

  // One-shot countdown: fail exactly the Nth durability barrier (Sync or
  // Commit) seen, leaving buffered data un-fsynced.
  uint64_t fail_nth_sync = 0;

  // Page-range filter for probabilistic faults.
  PageId min_page = 0;
  PageId max_page = kInvalidPageId;

  // Total injected-fault budget across all fault kinds.
  uint64_t max_injected_faults = UINT64_MAX;

  // Close() reports a header-flush failure (after really closing the file).
  bool fail_on_close = false;

  // Power-loss crash point (0 = disabled): after this many mutating disk
  // operations (page writes, frees, allocations, flushes, syncs, commits)
  // have been allowed through, the machine "dies" — every page written since
  // the last successful durability barrier is rolled back in the file
  // (modeling the maximal loss of un-fsynced data a real crash can inflict)
  // and every subsequent operation, reads included, fails with kIOError.
  // Close() on a dead disk abandons the file instead of committing.
  uint64_t power_loss_after_ops = 0;

  // Record one entry per mutating operation ("write:<page>", "free:<page>",
  // "alloc", "flush", "sync", "commit") so tests can assert ordering
  // contracts such as data-sync-before-commit.
  bool record_ops = false;
};

class FaultInjectingDiskManager final : public Disk {
 public:
  explicit FaultInjectingDiskManager(std::unique_ptr<Disk> inner,
                                     FaultInjectionOptions faults = {});

  // --- Disk interface, forwarded with fault hooks ---
  Status Create(const std::string& path, const StorageOptions& options) override;
  Status Open(const std::string& path, const StorageOptions& options) override;
  Status Close() override;
  void Abandon() override;
  Status Flush() override;
  bool is_open() const override { return inner_->is_open(); }
  size_t page_size() const override { return inner_->page_size(); }
  uint64_t page_count() const override { return inner_->page_count(); }
  const std::string& path() const override { return inner_->path(); }
  uint64_t PhysicalPageOffset(PageId id) const override {
    return inner_->PhysicalPageOffset(id);
  }
  Status ReadPage(PageId id, char* buf) override;
  Status WritePage(PageId id, const char* buf) override;
  Result<PageId> AllocatePage() override;
  Result<PageId> AllocateContiguous(uint64_t n) override;
  Status FreePage(PageId id) override;
  ObjectId catalog_oid() const override { return inner_->catalog_oid(); }
  void set_catalog_oid(ObjectId oid) override { inner_->set_catalog_oid(oid); }
  PageId free_list_head() const override { return inner_->free_list_head(); }
  uint32_t load_state() const override { return inner_->load_state(); }
  void set_load_state(uint32_t state) override {
    inner_->set_load_state(state);
  }
  Status Sync() override;
  Status Commit() override;
  uint64_t commit_epoch() const override { return inner_->commit_epoch(); }
  uint64_t reads_performed() const override {
    return inner_->reads_performed();
  }
  uint64_t writes_performed() const override {
    return inner_->writes_performed();
  }

  // --- fault control ---

  /// Live-tunable schedule: tests typically load a database fault-free, then
  /// arm faults before querying.
  FaultInjectionOptions& faults() { return faults_; }

  /// Replaces the schedule, reseeds the PRNG and zeroes the call counters
  /// (including power-loss state), so one-shot countdowns are relative to
  /// the arming point.
  void Arm(const FaultInjectionOptions& faults);

  /// Flips one bit of page `id` directly in the underlying file (below the
  /// checksum layer). `bit_index` is within the page's data bytes. The next
  /// uncached read of the page fails checksum verification.
  Status FlipBitOnDisk(PageId id, uint64_t bit_index);

  /// Kills the disk now, as if power were cut: un-fsynced page writes are
  /// rolled back in the file and all further operations fail. Idempotent.
  /// Also fired automatically by the power_loss_after_ops countdown.
  void SimulatePowerLoss();
  bool power_lost() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return power_lost_;
  }

  uint64_t reads_seen() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return reads_seen_;
  }
  uint64_t writes_seen() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return writes_seen_;
  }
  uint64_t ops_seen() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return ops_seen_;
  }
  uint64_t injected_faults() const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return injected_;
  }

  /// Mutating-operation trace (empty unless faults().record_ops). The
  /// returned reference is only stable while no other thread is issuing
  /// disk operations — read it after concurrent work has joined.
  const std::vector<std::string>& op_log() const { return op_log_; }

  Disk* inner() { return inner_.get(); }

 private:
  bool InRange(PageId id) const {
    return id >= faults_.min_page && id <= faults_.max_page;
  }
  bool Armed() const { return injected_ < faults_.max_injected_faults; }

  /// Gate shared by every operation: fails once the power-loss countdown has
  /// expired (triggering the crash on first expiry).
  Status GateOp();

  /// Bumps the local injected-fault count and its registry mirror.
  void CountInjected();
  void RecordOp(std::string op);
  Status PowerLossError() const;

  /// Snapshots page `id`'s current on-disk bytes (data + trailer) so a later
  /// SimulatePowerLoss() can roll the write back. Pages beyond EOF snapshot
  /// as zeros. No-op unless power-loss mode is armed.
  Status CapturePreimage(PageId id);

  /// Persists only a prefix of the page to the file and reports success —
  /// the write that a power cut interrupted.
  Status TornWrite(PageId id, const char* buf);

  /// Serializes the fault schedule, PRNG, call counters, pre-images and op
  /// log so the wrapper stays deterministic-per-schedule when the sharded
  /// buffer pool and the read-ahead pool issue I/O concurrently. Recursive
  /// because public operations compose (Close→Abandon, ReadPage→
  /// FlipBitOnDisk, GateOp→SimulatePowerLoss). Like the inner DiskManager's
  /// mutex, this is a leaf lock: nothing called under it re-enters the pool.
  mutable std::recursive_mutex mu_;

  std::unique_ptr<Disk> inner_;
  FaultInjectionOptions faults_;
  Random rng_;
  uint64_t reads_seen_ = 0;
  uint64_t writes_seen_ = 0;
  uint64_t ops_seen_ = 0;
  uint64_t syncs_seen_ = 0;
  uint64_t injected_ = 0;
  bool power_lost_ = false;
  // On-disk bytes of pages written since the last durability barrier, keyed
  // by page id; restored verbatim on power loss.
  std::map<PageId, std::string> preimages_;
  std::vector<std::string> op_log_;
  /// "faults.injected" registry mirror, resolved at Create/Open when
  /// StorageOptions::metrics_enabled is set.
  Counter* m_injected_ = nullptr;
};

}  // namespace paradise
