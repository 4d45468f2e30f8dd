#include "schema/database.h"

#include "core/consolidate.h"
#include "ingest/ingest.h"

namespace paradise {

Database::~Database() = default;

namespace {
constexpr char kSchemaRoot[] = "star_schema";
constexpr char kFactRoot[] = "fact_file";

std::string DimRootName(const std::string& dim_name) {
  return "dim." + dim_name;
}
std::string BitmapRootName(const std::string& dim_name, size_t col) {
  return "bitmap." + dim_name + "." + std::to_string(col);
}
std::string JoinIndexRootName(const std::string& dim_name, size_t col) {
  return "jidx." + dim_name + "." + std::to_string(col);
}
}  // namespace

Result<std::unique_ptr<Database>> Database::Create(const std::string& path,
                                                   StarSchema schema,
                                                   DatabaseOptions options) {
  PARADISE_RETURN_IF_ERROR(schema.Validate());
  PARADISE_RETURN_IF_ERROR(options.array.Validate());
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = std::move(options);
  db->schema_ = std::move(schema);
  db->fact_schema_ = db->schema_.FactSchema();
  db->storage_ = std::make_unique<StorageManager>();
  PARADISE_RETURN_IF_ERROR(
      db->storage_->Create(path, db->options_.storage));

  // Durably mark the file as mid-load before any structure is built: from
  // here until FinishLoad()'s final commit, a crash makes Open() report an
  // incomplete load instead of serving a partial database.
  db->storage_->set_load_state(page_header::kLoadBuilding);
  PARADISE_RETURN_IF_ERROR(db->storage_->Checkpoint());

  // Persist the logical schema.
  PARADISE_ASSIGN_OR_RETURN(
      ObjectId schema_oid,
      db->storage_->objects()->Create(db->schema_.Serialize()));
  PARADISE_RETURN_IF_ERROR(db->storage_->SetRoot(kSchemaRoot, schema_oid));

  // Empty dimension tables.
  db->dims_.reserve(db->schema_.num_dims());
  for (const DimensionSpec& spec : db->schema_.dims) {
    PARADISE_ASSIGN_OR_RETURN(
        DimensionTable table,
        DimensionTable::Create(db->storage_->pool(), spec.name,
                               spec.ToSchema()));
    PARADISE_RETURN_IF_ERROR(db->storage_->SetRoot(DimRootName(spec.name),
                                                   table.first_page()));
    db->dims_.push_back(std::move(table));
  }

  // Empty fact file.
  PARADISE_ASSIGN_OR_RETURN(
      db->fact_,
      FactFile::Create(db->storage_->pool(), db->storage_->disk(),
                       static_cast<uint32_t>(db->fact_schema_.record_size()),
                       static_cast<uint32_t>(
                           db->options_.storage.pages_per_extent)));
  PARADISE_RETURN_IF_ERROR(
      db->storage_->SetRoot(kFactRoot, db->fact_.meta_page()));
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = std::move(options);
  db->storage_ = std::make_unique<StorageManager>();
  PARADISE_RETURN_IF_ERROR(db->storage_->Open(path, db->options_.storage));

  if (db->storage_->load_state() == page_header::kLoadBuilding) {
    return Status::Corruption(
        "incomplete load: database '" + path +
        "' was interrupted before FinishLoad() committed; rebuild it from "
        "the source data");
  }

  // A crash between DiskManager::Create's first commit and Database::Create's
  // mid-load checkpoint leaves a committed-but-empty catalog; treat the
  // missing schema root as the same incomplete-load condition.
  Result<uint64_t> schema_oid_or = db->storage_->GetRoot(kSchemaRoot);
  if (!schema_oid_or.ok() && schema_oid_or.status().IsNotFound()) {
    return Status::Corruption(
        "incomplete load: database '" + path +
        "' has no schema catalog entry; creation was interrupted before the "
        "first commit, rebuild it from the source data");
  }
  PARADISE_ASSIGN_OR_RETURN(uint64_t schema_oid, std::move(schema_oid_or));
  PARADISE_ASSIGN_OR_RETURN(std::string schema_blob,
                            db->storage_->objects()->Read(schema_oid));
  PARADISE_ASSIGN_OR_RETURN(db->schema_,
                            StarSchema::Deserialize(schema_blob));
  db->fact_schema_ = db->schema_.FactSchema();

  for (const DimensionSpec& spec : db->schema_.dims) {
    PARADISE_ASSIGN_OR_RETURN(uint64_t first_page,
                              db->storage_->GetRoot(DimRootName(spec.name)));
    PARADISE_ASSIGN_OR_RETURN(
        DimensionTable table,
        DimensionTable::Open(db->storage_->pool(), spec.name, spec.ToSchema(),
                             first_page));
    db->dims_.push_back(std::move(table));
  }

  PARADISE_ASSIGN_OR_RETURN(uint64_t fact_meta,
                            db->storage_->GetRoot(kFactRoot));
  PARADISE_ASSIGN_OR_RETURN(
      db->fact_, FactFile::Open(db->storage_->pool(), db->storage_->disk(),
                                fact_meta));

  if (db->storage_->HasRoot("olap_array." + db->schema_.cube_name)) {
    PARADISE_ASSIGN_OR_RETURN(
        db->olap_, OlapArray::Open(db->storage_.get(),
                                   db->schema_.cube_name));
    db->has_olap_ = true;
    PARADISE_ASSIGN_OR_RETURN(
        db->aggregates_,
        OpenAggregates(db->storage_.get(), db->schema_.cube_name));
    db->ingest_ = std::make_unique<IngestManager>(db.get());
    if (db->storage_->HasRoot(IngestStateRootName())) {
      PARADISE_RETURN_IF_ERROR(db->ingest_->Recover());
    }
  }

  db->bitmap_indexes_.resize(db->schema_.num_dims());
  db->btree_join_roots_.resize(db->schema_.num_dims());
  for (size_t d = 0; d < db->schema_.num_dims(); ++d) {
    const size_t cols = db->schema_.dims[d].attrs.size();
    db->bitmap_indexes_[d].resize(cols);
    db->btree_join_roots_[d].assign(cols, kInvalidPageId);
    for (size_t col = 1; col < cols; ++col) {
      const std::string root = BitmapRootName(db->schema_.dims[d].name, col);
      if (db->storage_->HasRoot(root)) {
        PARADISE_ASSIGN_OR_RETURN(uint64_t oid, db->storage_->GetRoot(root));
        PARADISE_ASSIGN_OR_RETURN(
            BitmapJoinIndex idx,
            BitmapJoinIndex::Open(db->storage_->objects(), oid));
        db->bitmap_indexes_[d][col] =
            std::make_shared<BitmapJoinIndex>(std::move(idx));
      }
      const std::string jroot =
          JoinIndexRootName(db->schema_.dims[d].name, col);
      if (db->storage_->HasRoot(jroot)) {
        PARADISE_ASSIGN_OR_RETURN(uint64_t page,
                                  db->storage_->GetRoot(jroot));
        db->btree_join_roots_[d][col] = page;
      }
    }
  }
  db->load_finished_ = true;
  return db;
}

Status Database::AppendDimensionRow(size_t d, const Tuple& row) {
  if (facts_begun_) {
    return Status::InvalidArgument(
        "dimensions are frozen after BeginFacts()");
  }
  if (d >= dims_.size()) {
    return Status::InvalidArgument("bad dimension index " + std::to_string(d));
  }
  return dims_[d].Append(row);
}

Status Database::BeginFacts() {
  if (facts_begun_) return Status::InvalidArgument("BeginFacts called twice");
  for (const DimensionTable& dim : dims_) {
    if (dim.num_rows() == 0) {
      return Status::InvalidArgument("dimension '" + dim.name() +
                                     "' is empty; load dimensions first");
    }
  }
  facts_begun_ = true;
  // Commit the frozen dimensions (still marked mid-load) so the fact phase
  // starts from a durable prefix; a crash during it stays a clean
  // incomplete-load at Open().
  PARADISE_RETURN_IF_ERROR(storage_->Checkpoint());
  if (options_.build_array) {
    olap_builder_ = std::make_unique<OlapArray::Builder>(
        storage_.get(), schema_.cube_name, DimPointers(),
        options_.chunk_extents, options_.array, schema_.num_measures());
    PARADISE_RETURN_IF_ERROR(olap_builder_->Init());
  }
  return Status::OK();
}

Status Database::AppendFact(const std::vector<int32_t>& keys,
                            const std::vector<int64_t>& measures) {
  if (!facts_begun_) return Status::InvalidArgument("call BeginFacts() first");
  if (keys.size() != schema_.num_dims()) {
    return Status::InvalidArgument("fact key arity mismatch");
  }
  if (measures.size() != schema_.num_measures()) {
    return Status::InvalidArgument("fact measure arity mismatch: got " +
                                   std::to_string(measures.size()) +
                                   ", expected " +
                                   std::to_string(schema_.num_measures()));
  }
  Tuple t(&fact_schema_);
  for (size_t d = 0; d < keys.size(); ++d) t.SetInt32(d, keys[d]);
  for (size_t m = 0; m < measures.size(); ++m) {
    t.SetInt64(keys.size() + m, measures[m]);
  }
  PARADISE_RETURN_IF_ERROR(fact_.Append(t.bytes()));
  if (olap_builder_ != nullptr) {
    PARADISE_RETURN_IF_ERROR(olap_builder_->PutByKeys(keys, measures));
  }
  return Status::OK();
}

Status Database::FinishLoad() {
  if (!facts_begun_) return Status::InvalidArgument("call BeginFacts() first");
  if (load_finished_) return Status::InvalidArgument("load already finished");
  PARADISE_RETURN_IF_ERROR(fact_.Sync());
  if (olap_builder_ != nullptr) {
    PARADISE_ASSIGN_OR_RETURN(olap_, olap_builder_->Finish());
    has_olap_ = true;
    olap_builder_.reset();
  }
  bitmap_indexes_.resize(schema_.num_dims());
  btree_join_roots_.resize(schema_.num_dims());
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    bitmap_indexes_[d].resize(schema_.dims[d].attrs.size());
    btree_join_roots_[d].assign(schema_.dims[d].attrs.size(), kInvalidPageId);
  }
  if (options_.build_bitmap_indexes) {
    PARADISE_RETURN_IF_ERROR(BuildBitmapIndexes());
  }
  if (options_.build_btree_join_indexes) {
    PARADISE_RETURN_IF_ERROR(BuildBTreeJoinIndexes());
  }
  load_finished_ = true;
  // The commit below publishes the fully built database and clears the
  // mid-load mark in the same atomic manifest write.
  storage_->set_load_state(page_header::kLoadCommitted);
  PARADISE_RETURN_IF_ERROR(storage_->Checkpoint());
  if (has_olap_) ingest_ = std::make_unique<IngestManager>(this);
  return Status::OK();
}

bool Database::ingested() const {
  return ingest_ != nullptr && ingest_->ingested();
}

Database::PinnedArray Database::PinArray() const {
  std::lock_guard<std::mutex> lk(array_pin_mu_);
  return PinnedArray{olap_, commit_epoch()};
}

Status Database::PublishIngest(const std::function<Status()>& publish) {
  std::lock_guard<std::mutex> lk(array_pin_mu_);
  PARADISE_RETURN_IF_ERROR(storage_->Checkpoint());
  return publish();
}

Result<OlapArray> Database::MaterializeAggregate(
    const query::ConsolidationQuery& q, const std::string& name,
    const ArrayOptions& options) {
  PARADISE_ASSIGN_OR_RETURN(
      OlapArray cube, ConsolidateToOlapArray(storage_.get(), PinArray().array,
                                             DimPointers(), q, name, options));
  PARADISE_ASSIGN_OR_RETURN(
      AggregateProvenance provenance,
      RegisterAggregate(storage_.get(), name, schema_.cube_name, q));
  auto agg = std::make_shared<const RegisteredAggregate>(
      RegisteredAggregate{std::move(provenance), cube});
  std::lock_guard<std::mutex> lk(aggregates_mu_);
  aggregates_[name] = std::move(agg);
  return cube;
}

std::optional<AggregateMatch> Database::FindAggregate(
    const query::ConsolidationQuery& q) const {
  std::unique_lock<std::mutex> lk(aggregates_mu_);
  std::optional<AggregateMatch> match = ChooseAggregate(aggregates_, olap_, q);
  lk.unlock();
  if (match.has_value() && ingested()) return std::nullopt;
  return match;
}

Status Database::BuildBitmapIndexes() {
  // One builder per (dimension, attribute); a single fact scan feeds all.
  std::vector<std::vector<std::unique_ptr<BitmapJoinIndex::Builder>>> builders(
      schema_.num_dims());
  // Per dimension: key -> row, resolved once per fact tuple; per attribute,
  // the normalized value per row.
  std::vector<std::vector<std::vector<int64_t>>> row_values(
      schema_.num_dims());
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    const size_t cols = dims_[d].schema().num_columns();
    builders[d].resize(cols);
    row_values[d].resize(cols);
    for (size_t col = 1; col < cols; ++col) {
      builders[d][col] =
          std::make_unique<BitmapJoinIndex::Builder>(fact_.num_tuples());
      row_values[d][col].resize(dims_[d].num_rows());
      for (uint32_t row = 0; row < dims_[d].num_rows(); ++row) {
        PARADISE_ASSIGN_OR_RETURN(
            row_values[d][col][row],
            dims_[d].NormalizedValue(dims_[d].rows()[row].ref(), col));
      }
    }
  }
  PARADISE_RETURN_IF_ERROR(fact_.ScanAll(
      [&](uint64_t tuple, const char* record) -> Status {
        TupleRef t(&fact_schema_, record);
        for (size_t d = 0; d < schema_.num_dims(); ++d) {
          PARADISE_ASSIGN_OR_RETURN(uint32_t row,
                                    dims_[d].RowOfKey(t.GetInt32(d)));
          for (size_t col = 1; col < builders[d].size(); ++col) {
            builders[d][col]->Add(row_values[d][col][row], tuple);
          }
        }
        return Status::OK();
      }));
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    for (size_t col = 1; col < builders[d].size(); ++col) {
      PARADISE_ASSIGN_OR_RETURN(ObjectId oid,
                                builders[d][col]->Finish(storage_->objects()));
      PARADISE_RETURN_IF_ERROR(storage_->SetRoot(
          BitmapRootName(schema_.dims[d].name, col), oid));
      PARADISE_ASSIGN_OR_RETURN(
          BitmapJoinIndex idx,
          BitmapJoinIndex::Open(storage_->objects(), oid));
      bitmap_indexes_[d][col] =
          std::make_shared<BitmapJoinIndex>(std::move(idx));
    }
  }
  return Status::OK();
}

Status Database::BuildBTreeJoinIndexes() {
  // One B-tree per (dimension, attribute): value -> fact tuple number.
  std::vector<std::vector<BTree>> trees(schema_.num_dims());
  std::vector<std::vector<std::vector<int64_t>>> row_values(
      schema_.num_dims());
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    const size_t cols = dims_[d].schema().num_columns();
    trees[d].resize(cols);
    row_values[d].resize(cols);
    for (size_t col = 1; col < cols; ++col) {
      PARADISE_ASSIGN_OR_RETURN(trees[d][col],
                                BTree::Create(storage_->pool()));
      row_values[d][col].resize(dims_[d].num_rows());
      for (uint32_t row = 0; row < dims_[d].num_rows(); ++row) {
        PARADISE_ASSIGN_OR_RETURN(
            row_values[d][col][row],
            dims_[d].NormalizedValue(dims_[d].rows()[row].ref(), col));
      }
    }
  }
  PARADISE_RETURN_IF_ERROR(fact_.ScanAll(
      [&](uint64_t tuple, const char* record) -> Status {
        TupleRef t(&fact_schema_, record);
        for (size_t d = 0; d < schema_.num_dims(); ++d) {
          PARADISE_ASSIGN_OR_RETURN(uint32_t row,
                                    dims_[d].RowOfKey(t.GetInt32(d)));
          for (size_t col = 1; col < trees[d].size(); ++col) {
            PARADISE_RETURN_IF_ERROR(trees[d][col].Insert(
                row_values[d][col][row], static_cast<int64_t>(tuple)));
          }
        }
        return Status::OK();
      }));
  for (size_t d = 0; d < schema_.num_dims(); ++d) {
    for (size_t col = 1; col < trees[d].size(); ++col) {
      btree_join_roots_[d][col] = trees[d][col].root();
      PARADISE_RETURN_IF_ERROR(storage_->SetRoot(
          JoinIndexRootName(schema_.dims[d].name, col),
          trees[d][col].root()));
    }
  }
  return Status::OK();
}

std::vector<const DimensionTable*> Database::DimPointers() const {
  std::vector<const DimensionTable*> out;
  out.reserve(dims_.size());
  for (const DimensionTable& d : dims_) out.push_back(&d);
  return out;
}

Result<Database::StorageReport> Database::ReportStorage() const {
  StorageReport report;
  report.fact_file_bytes =
      fact_.used_data_pages() * storage_->options().page_size;
  if (has_olap_) {
    for (size_t m = 0; m < olap_.num_measures(); ++m) {
      report.array_data_bytes += olap_.array(m).TotalDataBytes();
      PARADISE_ASSIGN_OR_RETURN(uint64_t pages, olap_.array(m).TotalPages());
      report.array_pages_bytes += pages * storage_->options().page_size;
    }
  }
  for (const auto& per_dim : bitmap_indexes_) {
    for (const auto& idx : per_dim) {
      if (idx == nullptr) continue;
      PARADISE_ASSIGN_OR_RETURN(uint64_t bytes, idx->TotalBitmapBytes());
      report.bitmap_bytes += bytes;
    }
  }
  report.file_bytes = storage_->FileSizeBytes();
  return report;
}

}  // namespace paradise
