// Shared gtest helpers: temp-file management and small database builders.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "array/chunk.h"
#include "common/status.h"
#include "core/consolidate.h"
#include "core/kernels/consolidate_kernel.h"
#include "gen/datasets.h"
#include "query/result.h"
#include "schema/loader.h"
#include "storage/disk_manager.h"

namespace paradise::testing {

/// gtest-friendly Status assertions.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::paradise::Status _st = (expr);              \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const ::paradise::Status _st = (expr);              \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

/// Unwraps a Result or fails the test.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                          \
  ASSERT_OK_AND_ASSIGN_IMPL(                                      \
      PARADISE_RESULT_CONCAT(_assign_tmp_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)                \
  auto tmp = (rexpr);                                             \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();               \
  lhs = std::move(tmp).value()

/// A unique temp file path removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("paradise_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A forwarding Disk decorator with two hooks, installed through
/// StorageOptions::wrap_disk (see Install). `on_read` runs after every page
/// read; `on_sync` runs at the start of every durability barrier, before the
/// inner fsync, so a test can fire a token on the Nth read of a query or
/// hold a commit inside its fsync. Hooks may be swapped while other threads
/// do I/O.
class HookedDisk final : public Disk {
 public:
  using Hook = std::function<void()>;

  explicit HookedDisk(std::unique_ptr<Disk> inner) : inner_(std::move(inner)) {}

  /// Sets `options.wrap_disk` to build a HookedDisk; `*out` receives it.
  static void Install(StorageOptions* options, HookedDisk** out) {
    options->wrap_disk = [out](std::unique_ptr<Disk> inner) {
      auto hooked = std::make_unique<HookedDisk>(std::move(inner));
      *out = hooked.get();
      return std::unique_ptr<Disk>(std::move(hooked));
    };
  }

  void set_on_read(Hook hook) { Set(&on_read_, std::move(hook)); }
  void set_on_sync(Hook hook) { Set(&on_sync_, std::move(hook)); }

  Status Create(const std::string& path,
                const StorageOptions& options) override {
    return inner_->Create(path, options);
  }
  Status Open(const std::string& path, const StorageOptions& options) override {
    return inner_->Open(path, options);
  }
  Status Close() override { return inner_->Close(); }
  void Abandon() override { inner_->Abandon(); }
  Status Flush() override { return inner_->Flush(); }
  bool is_open() const override { return inner_->is_open(); }
  size_t page_size() const override { return inner_->page_size(); }
  uint64_t page_count() const override { return inner_->page_count(); }
  const std::string& path() const override { return inner_->path(); }
  uint64_t PhysicalPageOffset(PageId id) const override {
    return inner_->PhysicalPageOffset(id);
  }
  Status ReadPage(PageId id, char* buf) override {
    Status st = inner_->ReadPage(id, buf);
    Run(on_read_);
    return st;
  }
  Status WritePage(PageId id, const char* buf) override {
    return inner_->WritePage(id, buf);
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Result<PageId> AllocateContiguous(uint64_t n) override {
    return inner_->AllocateContiguous(n);
  }
  Status FreePage(PageId id) override { return inner_->FreePage(id); }
  ObjectId catalog_oid() const override { return inner_->catalog_oid(); }
  void set_catalog_oid(ObjectId oid) override { inner_->set_catalog_oid(oid); }
  PageId free_list_head() const override { return inner_->free_list_head(); }
  uint32_t load_state() const override { return inner_->load_state(); }
  void set_load_state(uint32_t state) override {
    inner_->set_load_state(state);
  }
  Status Sync() override {
    Run(on_sync_);
    return inner_->Sync();
  }
  Status Commit() override { return inner_->Commit(); }
  uint64_t commit_epoch() const override { return inner_->commit_epoch(); }
  uint64_t reads_performed() const override {
    return inner_->reads_performed();
  }
  uint64_t writes_performed() const override {
    return inner_->writes_performed();
  }

 private:
  void Set(Hook* slot, Hook hook) {
    std::lock_guard<std::mutex> lk(mu_);
    *slot = std::move(hook);
  }
  void Run(const Hook& slot) {
    Hook hook;
    {
      std::lock_guard<std::mutex> lk(mu_);
      hook = slot;
    }
    if (hook) hook();
  }

  std::unique_ptr<Disk> inner_;
  std::mutex mu_;  // guards the hooks, not the calls
  Hook on_read_;
  Hook on_sync_;
};

/// A tiny 3-dimensional cube config for fast unit tests: dims 6x8x10, two
/// hierarchy levels each, `valid` valid cells.
inline gen::GenConfig TinyConfig(uint64_t valid = 120, uint64_t seed = 7) {
  gen::GenConfig config;
  config.dims.resize(3);
  const uint32_t sizes[3] = {6, 8, 10};
  const uint32_t cards1[3] = {3, 4, 5};
  const uint32_t cards2[3] = {2, 2, 2};
  for (size_t d = 0; d < 3; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {cards1[d], cards2[d]};
  }
  config.num_valid_cells = valid;
  config.seed = seed;
  config.chunk_extents = {3, 4, 5};
  return config;
}

inline DatabaseOptions SmallDbOptions() {
  DatabaseOptions options;
  options.storage.page_size = 4096;
  options.storage.buffer_pool_pages = 256;
  options.storage.pages_per_extent = 8;
  return options;
}

/// The array executor at `threads` workers, with `options` otherwise.
inline Result<query::GroupedResult> ConsolidateAt(
    const OlapArray& array, const query::ConsolidationQuery& q,
    size_t threads, ArrayConsolidateStats* stats = nullptr,
    ArrayConsolidateOptions options = {}) {
  options.num_threads = threads;
  return ArrayConsolidate(array, q, nullptr, stats, options);
}

/// Brute-force reference evaluation of a consolidation query directly over
/// the generated data, independent of every storage structure and algorithm
/// under test. Group codes match the engines' dictionary codes because the
/// generator's level codes are assigned in first-appearance (key) order.
inline query::GroupedResult BruteForce(const gen::SyntheticDataset& data,
                                       const query::ConsolidationQuery& q) {
  const auto& dims = data.config.dims;
  // The engines label groups with dictionary codes assigned in
  // first-appearance (key) order; replicate that relabeling of the raw
  // generator level codes.
  auto dict_code_map = [&](size_t d, size_t level) {
    const uint32_t card = dims[d].level_cardinalities[level - 1];
    std::vector<int32_t> remap(card, -1);
    int32_t next = 0;
    for (uint32_t key = 0; key < dims[d].size; ++key) {
      const uint32_t code = dims[d].LevelCode(level, key);
      if (remap[code] == -1) remap[code] = next++;
    }
    return remap;
  };
  std::vector<std::vector<std::vector<int32_t>>> remaps(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    if (q.dims[d].group_by_col.has_value()) {
      remaps[d].resize(*q.dims[d].group_by_col + 1);
      remaps[d][*q.dims[d].group_by_col] =
          dict_code_map(d, *q.dims[d].group_by_col);
    }
  }
  // Resolve each selection into the set of accepted level codes.
  std::vector<std::vector<std::set<uint32_t>>> accepted(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    for (const query::Selection& s : q.dims[d].selections) {
      std::set<uint32_t> codes;
      const uint32_t card = dims[d].level_cardinalities[s.attr_col - 1];
      for (uint32_t c = 0; c < card; ++c) {
        const std::string value = gen::AttrValue(d, s.attr_col, c);
        for (const query::Literal& lit : s.values) {
          if (query::LiteralToString(lit) == value) codes.insert(c);
        }
      }
      accepted[d].push_back(std::move(codes));
    }
  }

  std::map<std::vector<int32_t>, query::AggState> groups;
  for (size_t i = 0; i < data.cell_global_indices.size(); ++i) {
    const std::vector<int32_t> keys =
        data.CellKeys(data.cell_global_indices[i]);
    bool pass = true;
    std::vector<int32_t> group;
    for (size_t d = 0; d < dims.size() && pass; ++d) {
      const uint32_t key = static_cast<uint32_t>(keys[d]);
      for (size_t s = 0; s < q.dims[d].selections.size(); ++s) {
        const uint32_t code =
            dims[d].LevelCode(q.dims[d].selections[s].attr_col, key);
        if (!accepted[d][s].contains(code)) {
          pass = false;
          break;
        }
      }
      if (pass && q.dims[d].group_by_col.has_value()) {
        const size_t col = *q.dims[d].group_by_col;
        group.push_back(remaps[d][col][dims[d].LevelCode(col, key)]);
      }
    }
    if (pass) groups[group].Add(data.measures[i]);
  }
  query::GroupedResult result;
  for (const auto& [group, agg] : groups) {
    result.Add(query::ResultRow{group, agg});
  }
  result.SortCanonical();
  return result;
}

// A serialized chunk copied into a heap buffer of exactly its size, so a
// sanitizer flags any read past its last byte (a std::string keeps a
// terminator and often spare capacity behind it).
struct ExactBlob {
  std::unique_ptr<char[]> bytes;
  size_t size = 0;

  explicit ExactBlob(std::string_view blob)
      : bytes(new char[blob.size()]), size(blob.size()) {
    std::memcpy(bytes.get(), blob.data(), blob.size());
  }
  std::string_view view() const { return {bytes.get(), size}; }
};

// Asserts that the dispatched block unpacker, under forced scalar and (when
// the CPU has it) AVX2, returns exactly ChunkView::DecodeBlock's entries for
// every block of the packed `view` and writes nothing past them.
inline void ExpectUnpackMatchesDecodeBlock(const ChunkView& view) {
  kernels::ForceIsa(std::nullopt);
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  if (kernels::ActiveIsa() != kernels::Isa::kScalar) {
    isas.push_back(kernels::ActiveIsa());
  }
  constexpr uint32_t kFillOffset = 0xA5A5A5A5u;
  constexpr int64_t kFillValue = 0x5A5A5A5A5A5A5A5A;
  for (uint32_t b = 0; b < view.num_blocks(); ++b) {
    uint32_t want_off[kPackedChunkBlock];
    int64_t want_val[kPackedChunkBlock];
    const uint32_t n = view.DecodeBlock(b, want_off, want_val);
    for (const kernels::Isa isa : isas) {
      kernels::ForceIsa(isa);
      const kernels::UnpackBlockFn unpack = kernels::ActiveUnpackBlock();
      kernels::ForceIsa(std::nullopt);
      uint32_t off[kPackedChunkBlock];
      int64_t val[kPackedChunkBlock];
      std::fill_n(off, kPackedChunkBlock, kFillOffset);
      std::fill_n(val, kPackedChunkBlock, kFillValue);
      const std::string where = "block " + std::to_string(b) + " isa " +
                                std::string(kernels::IsaName(isa));
      ASSERT_EQ(unpack(view, b, off, val), n) << where;
      for (uint32_t k = 0; k < kPackedChunkBlock; ++k) {
        ASSERT_EQ(off[k], k < n ? want_off[k] : kFillOffset)
            << where << " entry " << k;
        ASSERT_EQ(val[k], k < n ? want_val[k] : kFillValue)
            << where << " entry " << k;
      }
    }
  }
}

}  // namespace paradise::testing
