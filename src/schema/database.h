// Database: one OLAP cube materialized under BOTH physical designs inside a
// single storage file — the relational star schema (fact file + heap
// dimension tables + bitmap join indexes) and the OLAP Array ADT — exactly
// the paper's experimental setup, where both competitors live inside
// Paradise and share its storage manager and buffer pool.
//
// Load protocol:
//   auto db = Database::Create(path, star_schema, options);
//   db->AppendDimensionRow(d, tuple);  ...  (every dimension fully loaded)
//   db->BeginFacts();
//   db->AppendFact(keys, measure);     ...
//   db->FinishLoad();                  // builds array, B-trees, bitmaps
// After FinishLoad (or Open of a previously built file) the query engines in
// query/engine.h can run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/options.h"
#include "common/result.h"
#include "common/status.h"
#include "core/aggregate_registry.h"
#include "core/olap_array.h"
#include "index/bitmap_index.h"
#include "relational/dimension_table.h"
#include "relational/fact_file.h"
#include "schema/star_schema.h"
#include "storage/storage_manager.h"

namespace paradise {

class IngestManager;

struct DatabaseOptions {
  StorageOptions storage;
  ArrayOptions array;

  /// Per-dimension chunk extents for the OLAP array; empty = use
  /// array.default_chunk_extent everywhere.
  std::vector<uint32_t> chunk_extents;

  /// Build the OLAP Array ADT during FinishLoad.
  bool build_array = true;

  /// Build bitmap join indexes on every non-key dimension attribute during
  /// FinishLoad (the paper creates them ahead of query time, §4.5).
  bool build_bitmap_indexes = true;

  /// Also build B-tree join indexes (attribute value → fact tuple number)
  /// on every non-key attribute — the §4.4 baseline plan. Off by default:
  /// it costs one B-tree insert per (fact tuple × attribute).
  bool build_btree_join_indexes = false;
};

class Database {
 public:
  /// Creates a new database file holding an empty cube.
  static Result<std::unique_ptr<Database>> Create(const std::string& path,
                                                  StarSchema schema,
                                                  DatabaseOptions options);

  /// Opens a previously built database. Committed-but-uncompacted ingest
  /// generations are recovered and republished as overlays, so the newest
  /// epoch serves the merged data immediately.
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                DatabaseOptions options);

  ~Database();

  /// Appends one row to dimension `d`. Only valid before BeginFacts().
  Status AppendDimensionRow(size_t d, const Tuple& row);

  /// Freezes the dimensions and prepares fact loading.
  Status BeginFacts();

  /// Appends one fact (dimension keys in dimension order + one value per
  /// measure) to the fact file and, if enabled, to the OLAP array builder.
  Status AppendFact(const std::vector<int32_t>& keys,
                    const std::vector<int64_t>& measures);

  /// Single-measure convenience.
  Status AppendFact(const std::vector<int32_t>& keys, int64_t measure) {
    return AppendFact(keys, std::vector<int64_t>{measure});
  }

  /// Finalizes everything: fact file, OLAP array, bitmap indexes, catalog.
  Status FinishLoad();

  // --- accessors (valid after FinishLoad or Open) ---
  const StarSchema& schema() const { return schema_; }
  const Schema& fact_schema() const { return fact_schema_; }
  StorageManager* storage() { return storage_.get(); }
  FactFile* fact() { return &fact_; }
  const FactFile* fact() const { return &fact_; }
  OlapArray* olap() { return &olap_; }
  const OlapArray* olap() const { return &olap_; }
  bool has_olap() const { return has_olap_; }
  const DimensionTable& dim(size_t d) const { return dims_[d]; }
  std::vector<const DimensionTable*> DimPointers() const;

  /// bitmap_indexes()[dim][col]; null where no index was built.
  const std::vector<std::vector<std::shared_ptr<BitmapJoinIndex>>>&
  bitmap_indexes() const {
    return bitmap_indexes_;
  }

  /// btree_join_roots()[dim][col]: root of the value → tuple-number B-tree,
  /// kInvalidPageId where none was built.
  const std::vector<std::vector<PageId>>& btree_join_roots() const {
    return btree_join_roots_;
  }

  /// Incremental write path (null until the OLAP array exists — ingest
  /// targets the array only).
  IngestManager* ingest() { return ingest_.get(); }

  /// True once any ingest commit ever landed. The relational fact file is
  /// stale from then on, so the relational engines are gated off with a
  /// typed error and the planner always picks the array. One atomic load:
  /// it never waits for a commit in flight (IngestManager::ingested).
  bool ingested() const;

  /// An (epoch, OLAP-array snapshot) pair captured atomically against
  /// concurrent ingest publication: the returned array copy keeps reading
  /// exactly the version set that was current at `epoch`, no matter what
  /// commits or compactions publish afterwards.
  struct PinnedArray {
    OlapArray array;
    uint64_t epoch = 0;
  };
  PinnedArray PinArray() const;

  /// Checkpoint + version publication under the pin lock, so PinArray()
  /// can never observe the new epoch without the published versions or the
  /// old epoch with them. IngestManager calls this; nothing else should.
  Status PublishIngest(const std::function<Status()>& publish);

  /// ConsolidateToOlapArray of the current array into cube `name`, which is
  /// then registered (catalog + memory) as an aggregate FindAggregate can
  /// choose, replacing any of the same name.
  Result<OlapArray> MaterializeAggregate(const query::ConsolidationQuery& q,
                                         const std::string& name,
                                         const ArrayOptions& options);

  /// ChooseAggregate over the registered aggregates; always nullopt once
  /// ingested(), as ingest does not maintain them. A commit raises
  /// ingested() before it publishes, so a match found after PinArray()
  /// proves the pin predates every commit.
  std::optional<AggregateMatch> FindAggregate(
      const query::ConsolidationQuery& q) const;

  /// Cold-run protocol: flush and drop every buffered page.
  Status DropCaches() { return storage_->FlushAndEvictAll(); }

  /// Commit epoch of the backing file — the version number cached query
  /// results are keyed on (query/result_cache.h). Stale after a durable
  /// commit, never after a clean reload.
  uint64_t commit_epoch() const { return storage_->commit_epoch(); }

  /// Identity string scoping result-cache entries to this file + cube.
  std::string CacheScope() const {
    return storage_->disk()->path() + "#" + schema_.cube_name;
  }

  /// Storage accounting for the benches.
  struct StorageReport {
    uint64_t fact_file_bytes = 0;    // used data pages * page size
    uint64_t array_data_bytes = 0;   // serialized chunk bytes
    uint64_t array_pages_bytes = 0;  // chunk + directory page footprint
    uint64_t bitmap_bytes = 0;       // all bitmap-index bitmaps
    uint64_t file_bytes = 0;         // whole database file
  };
  Result<StorageReport> ReportStorage() const;

 private:
  Database() = default;

  Status BuildBitmapIndexes();
  Status BuildBTreeJoinIndexes();

  DatabaseOptions options_;
  StarSchema schema_;
  Schema fact_schema_;
  std::unique_ptr<StorageManager> storage_;
  std::vector<DimensionTable> dims_;
  FactFile fact_;
  OlapArray olap_;
  bool has_olap_ = false;
  std::vector<std::vector<std::shared_ptr<BitmapJoinIndex>>> bitmap_indexes_;
  std::vector<std::vector<PageId>> btree_join_roots_;
  std::unique_ptr<IngestManager> ingest_;
  // Guards the (commit_epoch, published array versions) pairing: PinArray()
  // reads both under it; PublishIngest() advances both under it.
  mutable std::mutex array_pin_mu_;
  // Registered aggregates of this cube, each cube opened once: loaded at
  // Open, appended by MaterializeAggregate while queries read it.
  mutable std::mutex aggregates_mu_;
  AggregateMap aggregates_;

  // Load-time state.
  bool facts_begun_ = false;
  bool load_finished_ = false;
  std::unique_ptr<OlapArray::Builder> olap_builder_;
};

}  // namespace paradise
