// Shared gtest helpers: temp-file management and small database builders.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/consolidate.h"
#include "gen/datasets.h"
#include "query/result.h"
#include "schema/loader.h"

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

}  // namespace paradise::testing
