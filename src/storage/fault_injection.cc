#include "storage/fault_injection.h"

#include <cstdio>
#include <utility>

namespace paradise {

FaultInjectingDiskManager::FaultInjectingDiskManager(
    std::unique_ptr<Disk> inner, FaultInjectionOptions faults)
    : inner_(std::move(inner)), faults_(faults), rng_(faults.seed) {}

void FaultInjectingDiskManager::Arm(const FaultInjectionOptions& faults) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  faults_ = faults;
  rng_ = Random(faults.seed);
  reads_seen_ = 0;
  writes_seen_ = 0;
  ops_seen_ = 0;
  syncs_seen_ = 0;
  injected_ = 0;
  power_lost_ = false;
  preimages_.clear();
  op_log_.clear();
}

Status FaultInjectingDiskManager::PowerLossError() const {
  return Status::IOError(
      "simulated power loss" +
      (inner_->path().empty() ? std::string() : " on " + inner_->path()));
}

Status FaultInjectingDiskManager::GateOp() {
  if (power_lost_) return PowerLossError();
  if (faults_.power_loss_after_ops != 0 &&
      ops_seen_ >= faults_.power_loss_after_ops) {
    SimulatePowerLoss();
    return PowerLossError();
  }
  return Status::OK();
}

void FaultInjectingDiskManager::RecordOp(std::string op) {
  if (faults_.record_ops) op_log_.push_back(std::move(op));
}

void FaultInjectingDiskManager::CountInjected() {
  ++injected_;
  if (m_injected_ != nullptr) m_injected_->Increment();
}

Status FaultInjectingDiskManager::Create(const std::string& path,
                                         const StorageOptions& options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (power_lost_) return PowerLossError();
  if (options.metrics_enabled) {
    m_injected_ = MetricsRegistry::Default().GetCounter("faults.injected");
  }
  return inner_->Create(path, options);
}

Status FaultInjectingDiskManager::Open(const std::string& path,
                                       const StorageOptions& options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (power_lost_) return PowerLossError();
  if (options.metrics_enabled) {
    m_injected_ = MetricsRegistry::Default().GetCounter("faults.injected");
  }
  return inner_->Open(path, options);
}

Status FaultInjectingDiskManager::Close() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (power_lost_) {
    // A dead machine cannot run the commit protocol: release the handle
    // without committing so the file keeps exactly its crash-time state.
    inner_->Abandon();
    return PowerLossError();
  }
  const bool inject = faults_.fail_on_close && Armed();
  Status st = inner_->Close();
  if (st.ok() && inject) {
    CountInjected();
    return Status::IOError("injected write failure flushing header of " +
                           (path().empty() ? std::string("database file")
                                           : path()));
  }
  return st;
}

void FaultInjectingDiskManager::Abandon() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  preimages_.clear();
  inner_->Abandon();
}

Status FaultInjectingDiskManager::Flush() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  RecordOp("flush");
  // A flush moves data into OS buffers only — it is NOT a durability
  // barrier, so pre-images survive it and a power loss still rolls the
  // writes back.
  return inner_->Flush();
}

Status FaultInjectingDiskManager::Sync() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  ++syncs_seen_;
  RecordOp("sync");
  if (faults_.fail_nth_sync != 0 && syncs_seen_ == faults_.fail_nth_sync &&
      Armed()) {
    CountInjected();
    return Status::IOError("injected fsync failure on " + path());
  }
  Status st = inner_->Sync();
  if (st.ok()) preimages_.clear();  // data reached stable storage
  return st;
}

Status FaultInjectingDiskManager::Commit() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  ++syncs_seen_;
  RecordOp("commit");
  if (faults_.fail_nth_sync != 0 && syncs_seen_ == faults_.fail_nth_sync &&
      Armed()) {
    CountInjected();
    return Status::IOError("injected fsync failure on " + path());
  }
  Status st = inner_->Commit();
  if (st.ok()) preimages_.clear();  // manifest and data are durable
  return st;
}

Status FaultInjectingDiskManager::ReadPage(PageId id, char* buf) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++reads_seen_;
  if (faults_.fail_nth_read != 0 && reads_seen_ == faults_.fail_nth_read &&
      Armed()) {
    CountInjected();
    return Status::IOError("injected read fault on page " +
                           std::to_string(id));
  }
  if (faults_.flip_bit_on_nth_read != 0 &&
      reads_seen_ == faults_.flip_bit_on_nth_read && Armed()) {
    CountInjected();
    PARADISE_RETURN_IF_ERROR(
        FlipBitOnDisk(id, rng_.Uniform(8 * inner_->page_size())));
  }
  if (Armed() && InRange(id)) {
    if (faults_.read_error_probability > 0.0 &&
        rng_.Bernoulli(faults_.read_error_probability)) {
      CountInjected();
      return Status::IOError("injected read fault on page " +
                             std::to_string(id));
    }
    if (faults_.read_bit_flip_probability > 0.0 &&
        rng_.Bernoulli(faults_.read_bit_flip_probability)) {
      CountInjected();
      PARADISE_RETURN_IF_ERROR(
          FlipBitOnDisk(id, rng_.Uniform(8 * inner_->page_size())));
    }
  }
  return inner_->ReadPage(id, buf);
}

Status FaultInjectingDiskManager::WritePage(PageId id, const char* buf) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  ++writes_seen_;
  RecordOp("write:" + std::to_string(id));
  PARADISE_RETURN_IF_ERROR(CapturePreimage(id));
  if (faults_.fail_nth_write != 0 && writes_seen_ == faults_.fail_nth_write &&
      Armed()) {
    CountInjected();
    return Status::IOError("injected write fault on page " +
                           std::to_string(id));
  }
  if (faults_.torn_write_on_nth_write != 0 &&
      writes_seen_ == faults_.torn_write_on_nth_write && Armed()) {
    CountInjected();
    return TornWrite(id, buf);
  }
  if (Armed() && InRange(id) && faults_.write_error_probability > 0.0 &&
      rng_.Bernoulli(faults_.write_error_probability)) {
    CountInjected();
    return Status::IOError("injected write fault on page " +
                           std::to_string(id));
  }
  return inner_->WritePage(id, buf);
}

Result<PageId> FaultInjectingDiskManager::AllocatePage() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  RecordOp("alloc");
  return inner_->AllocatePage();
}

Result<PageId> FaultInjectingDiskManager::AllocateContiguous(uint64_t n) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  RecordOp("alloc_contig:" + std::to_string(n));
  return inner_->AllocateContiguous(n);
}

Status FaultInjectingDiskManager::FreePage(PageId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PARADISE_RETURN_IF_ERROR(GateOp());
  ++ops_seen_;
  RecordOp("free:" + std::to_string(id));
  PARADISE_RETURN_IF_ERROR(CapturePreimage(id));
  return inner_->FreePage(id);
}

Status FaultInjectingDiskManager::CapturePreimage(PageId id) {
  if (faults_.power_loss_after_ops == 0 || power_lost_) return Status::OK();
  if (preimages_.count(id) != 0) return Status::OK();
  if (!inner_->is_open()) return Status::OK();
  // Push the inner manager's buffered writes out so the raw read below sees
  // the page's real current bytes, trailer included.
  PARADISE_RETURN_IF_ERROR(inner_->Flush());
  const uint64_t offset = inner_->PhysicalPageOffset(id);
  const uint64_t stride =
      inner_->PhysicalPageOffset(1) - inner_->PhysicalPageOffset(0);
  std::string bytes(stride, '\0');
  std::FILE* f = std::fopen(inner_->path().c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("fault injector: cannot open " + inner_->path());
  }
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0) {
    // A short read means the page lies (partly) beyond EOF — a fresh
    // allocation; the zero fill stands in for bytes that did not yet exist.
    (void)std::fread(bytes.data(), 1, bytes.size(), f);
  }
  std::fclose(f);
  preimages_.emplace(id, std::move(bytes));
  return Status::OK();
}

void FaultInjectingDiskManager::SimulatePowerLoss() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (power_lost_) return;
  power_lost_ = true;
  CountInjected();
  RecordOp("power_loss");
  if (inner_->is_open() && !preimages_.empty()) {
    // Flush the inner manager's buffered writes, if it keeps any, first so
    // none of them can land on top of the rollback below.
    (void)inner_->Flush();
    if (std::FILE* f = std::fopen(inner_->path().c_str(), "rb+")) {
      for (const auto& [id, bytes] : preimages_) {
        if (std::fseek(f, static_cast<long>(inner_->PhysicalPageOffset(id)),
                       SEEK_SET) == 0) {
          (void)std::fwrite(bytes.data(), 1, bytes.size(), f);
        }
      }
      std::fflush(f);
      std::fclose(f);
    }
  }
  preimages_.clear();
}

Status FaultInjectingDiskManager::FlipBitOnDisk(PageId id,
                                                uint64_t bit_index) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!inner_->is_open()) {
    return Status::InvalidArgument("fault injector: disk not open");
  }
  if (bit_index >= 8 * inner_->page_size()) {
    return Status::InvalidArgument("bit index beyond page");
  }
  // Push the inner manager's buffered writes out first so the direct file
  // access below sees (and keeps) current bytes.
  PARADISE_RETURN_IF_ERROR(inner_->Flush());
  std::FILE* f = std::fopen(inner_->path().c_str(), "rb+");
  if (f == nullptr) {
    return Status::IOError("fault injector: cannot open " + inner_->path());
  }
  const uint64_t offset =
      inner_->PhysicalPageOffset(id) + bit_index / 8;
  char byte = 0;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(&byte, 1, 1, f) != 1) {
    std::fclose(f);
    return Status::IOError("fault injector: cannot read byte to corrupt");
  }
  byte = static_cast<char>(byte ^ (1u << (bit_index % 8)));
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(&byte, 1, 1, f) != 1 || std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IOError("fault injector: cannot write corrupted byte");
  }
  std::fclose(f);
  return Status::OK();
}

Status FaultInjectingDiskManager::TornWrite(PageId id, const char* buf) {
  PARADISE_RETURN_IF_ERROR(inner_->Flush());
  std::FILE* f = std::fopen(inner_->path().c_str(), "rb+");
  if (f == nullptr) {
    return Status::IOError("fault injector: cannot open " + inner_->path());
  }
  const uint64_t offset = inner_->PhysicalPageOffset(id);
  const size_t half = inner_->page_size() / 2;
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(buf, 1, half, f) != half || std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IOError("fault injector: torn write failed outright");
  }
  std::fclose(f);
  // Report success: a torn write is silent at write time and only detectable
  // later, by checksum verification on read.
  return Status::OK();
}

}  // namespace paradise
