// OlapArray: the paper's OLAP Array ADT (§3). It bundles
//   * the chunked, offset-compressed n-dimensional array of measures,
//   * one B-tree per dimension mapping dimension keys to base array indices,
//   * one B-tree per selectable dimension attribute mapping attribute values
//     to lists of base array indices (the §4.2 "join index" lists),
//   * one IndexToIndexArray per dimension (hierarchy roll-up maps), and
//   * the dimension schemas/names, persisted together in one meta object
//     registered in the database catalog.
// The ADT functions of §3.5 — cell read, subset summation, slicing,
// consolidation — live here and in consolidate*.cc / slice.cc; the Write
// function is IngestManager::Write + Commit (src/ingest/), the only way a
// loaded cube's cells change.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "array/chunked_array.h"
#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "core/index_to_index.h"
#include "index/btree.h"
#include "relational/dimension_table.h"
#include "storage/storage_manager.h"

namespace paradise {

class OlapArray {
 public:
  /// Builds the ADT from dimension tables plus a stream of
  /// (dimension keys, measure) cells. Array indices are assigned by row
  /// position in each dimension table.
  class Builder {
   public:
    /// `num_measures` parallel cell arrays are built (p >= 1), all sharing
    /// the dimension B-trees, IndexToIndex arrays and chunk layout — the
    /// paper's cells hold the p measures of §2's M = {m_1..m_p}.
    Builder(StorageManager* storage, std::string name,
            std::vector<const DimensionTable*> dims,
            std::vector<uint32_t> chunk_extents, ArrayOptions options,
            size_t num_measures = 1);

    /// Creates the per-dimension B-trees and IndexToIndex arrays. Must be
    /// called once before the first Put.
    Status Init();

    /// Adds the cell addressed by one key per dimension (single measure).
    Status PutByKeys(std::span<const int32_t> keys, int64_t value);

    /// Adds the cell's p measure values.
    Status PutByKeys(std::span<const int32_t> keys,
                     const std::vector<int64_t>& values);

    /// Writes the arrays, the meta object, and the catalog entry.
    Result<OlapArray> Finish();

   private:
    StorageManager* storage_;
    std::string name_;
    std::vector<const DimensionTable*> dims_;
    std::vector<uint32_t> chunk_extents_;
    ArrayOptions options_;
    size_t num_measures_;
    bool initialized_ = false;

    std::vector<BTree> key_btrees_;
    std::vector<std::vector<PageId>> attr_btree_roots_;  // [dim][col]
    std::vector<IndexToIndexArray> i2i_;
    std::vector<std::unique_ptr<ChunkedArray::Builder>> array_builders_;
  };

  OlapArray() = default;

  /// Opens an ADT previously built under `name`.
  static Result<OlapArray> Open(StorageManager* storage,
                                const std::string& name);

  const std::string& name() const { return name_; }
  size_t num_dims() const { return dim_names_.size(); }
  size_t num_measures() const { return arrays_.size(); }
  const std::string& dim_name(size_t d) const { return dim_names_[d]; }
  const Schema& dim_schema(size_t d) const { return dim_schemas_[d]; }

  /// The cell array for measure `m`.
  const ChunkedArray& array(size_t m = 0) const { return arrays_[m]; }

  const ChunkLayout& layout() const { return arrays_[0].layout(); }
  const IndexToIndexArray& i2i(size_t d) const { return i2i_[d]; }
  StorageManager* storage() const { return storage_; }

  /// Column counts per dimension, in query::ConsolidationQuery::Validate
  /// form.
  std::vector<size_t> DimNumColumns() const;

  /// Base array index of a dimension key (B-tree probe), or nullopt.
  Result<std::optional<uint32_t>> KeyToIndex(size_t d, int32_t key) const;

  /// Base array indices whose attribute `col` equals the normalized value —
  /// one selected value's index list in the §4.2 algorithm.
  Status AttrIndexList(size_t d, size_t col, int64_t normalized_value,
                       std::vector<uint32_t>* out) const;

  /// ADT Read function: measure `m` at the cell addressed by keys, or
  /// nullopt if the cell is invalid.
  Result<std::optional<int64_t>> ReadCellByKeys(
      const std::vector<int32_t>& keys, size_t m = 0) const;

  /// Mutable access for ingest and compaction, which publish new versions.
  ChunkedArray* mutable_array(size_t m = 0) { return &arrays_[m]; }

  /// Re-serializes the ADT meta (embedding the measures' CURRENT array meta
  /// oids) into a new object and repoints the catalog root at it
  /// copy-on-write. Returns the superseded meta object id; the caller frees
  /// it once the swap is durable. Used by ingest compaction, which replaces
  /// the measure arrays' storage objects wholesale.
  Result<ObjectId> PublishMeta();

 private:
  std::string SerializeMeta() const;

  StorageManager* storage_ = nullptr;
  std::string name_;
  std::vector<std::string> dim_names_;
  std::vector<Schema> dim_schemas_;
  std::vector<BTree> key_btrees_;
  std::vector<std::vector<PageId>> attr_btree_roots_;
  std::vector<IndexToIndexArray> i2i_;
  std::vector<ChunkedArray> arrays_;  // one per measure
};

}  // namespace paradise
