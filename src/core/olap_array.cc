#include "core/olap_array.h"

#include <cstring>

#include "common/coding.h"

namespace paradise {

namespace {
// Meta blob layout:
//   [0,4)  magic "OLAP"
//   [4,8)  dimension count
//   per dimension:
//     fixed32 name length + name bytes
//     fixed32 schema blob length + schema blob
//     fixed64 key B-tree root
//     per column (schema order): fixed64 attribute B-tree root
//       (kInvalidPageId for column 0)
//     IndexToIndexArray blob (self-delimiting)
//   fixed32 measure count, then per measure a fixed64 chunked-array meta
//   ObjectId
constexpr char kMagic[4] = {'O', 'L', 'A', 'P'};
}  // namespace

OlapArray::Builder::Builder(StorageManager* storage, std::string name,
                            std::vector<const DimensionTable*> dims,
                            std::vector<uint32_t> chunk_extents,
                            ArrayOptions options, size_t num_measures)
    : storage_(storage),
      name_(std::move(name)),
      dims_(std::move(dims)),
      chunk_extents_(std::move(chunk_extents)),
      options_(options),
      num_measures_(num_measures) {}

Status OlapArray::Builder::Init() {
  if (initialized_) return Status::InvalidArgument("Builder already Init()ed");
  PARADISE_RETURN_IF_ERROR(options_.Validate());
  if (dims_.empty()) {
    return Status::InvalidArgument("OLAP array needs at least one dimension");
  }
  std::vector<uint32_t> sizes;
  sizes.reserve(dims_.size());
  for (const DimensionTable* dim : dims_) {
    if (dim->num_rows() == 0) {
      return Status::InvalidArgument("dimension '" + dim->name() +
                                     "' is empty");
    }
    sizes.push_back(dim->num_rows());
  }
  if (chunk_extents_.empty()) {
    chunk_extents_.assign(dims_.size(), options_.default_chunk_extent);
  }
  if (num_measures_ == 0) {
    return Status::InvalidArgument("OLAP array needs at least one measure");
  }
  PARADISE_ASSIGN_OR_RETURN(ChunkLayout layout,
                            ChunkLayout::Make(sizes, chunk_extents_));
  array_builders_.reserve(num_measures_);
  for (size_t m = 0; m < num_measures_; ++m) {
    array_builders_.push_back(
        std::make_unique<ChunkedArray::Builder>(storage_, layout, options_));
  }

  key_btrees_.reserve(dims_.size());
  attr_btree_roots_.resize(dims_.size());
  i2i_.reserve(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    const DimensionTable& dim = *dims_[d];
    // Key B-tree: dimension key -> base array index (= row position).
    PARADISE_ASSIGN_OR_RETURN(BTree key_tree,
                              BTree::Create(storage_->pool()));
    for (uint32_t row = 0; row < dim.num_rows(); ++row) {
      PARADISE_RETURN_IF_ERROR(
          key_tree.Insert(dim.rows()[row].GetInt32(0), row));
    }
    key_btrees_.push_back(std::move(key_tree));

    // Attribute B-trees: normalized attribute value -> base array index.
    attr_btree_roots_[d].assign(dim.schema().num_columns(), kInvalidPageId);
    for (size_t col = 1; col < dim.schema().num_columns(); ++col) {
      PARADISE_ASSIGN_OR_RETURN(BTree attr_tree,
                                BTree::Create(storage_->pool()));
      for (uint32_t row = 0; row < dim.num_rows(); ++row) {
        PARADISE_ASSIGN_OR_RETURN(
            int64_t norm, dim.NormalizedValue(dim.rows()[row].ref(), col));
        PARADISE_RETURN_IF_ERROR(attr_tree.Insert(norm, row));
      }
      attr_btree_roots_[d][col] = attr_tree.root();
    }

    PARADISE_ASSIGN_OR_RETURN(IndexToIndexArray i2i,
                              IndexToIndexArray::FromDimension(dim));
    i2i_.push_back(std::move(i2i));
  }
  initialized_ = true;
  return Status::OK();
}

Status OlapArray::Builder::PutByKeys(std::span<const int32_t> keys,
                                     int64_t value) {
  return PutByKeys(keys, std::vector<int64_t>{value});
}

Status OlapArray::Builder::PutByKeys(std::span<const int32_t> keys,
                                     const std::vector<int64_t>& values) {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  if (keys.size() != dims_.size()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  if (values.size() != num_measures_) {
    return Status::InvalidArgument("measure arity mismatch: got " +
                                   std::to_string(values.size()) +
                                   ", expected " +
                                   std::to_string(num_measures_));
  }
  CellCoords coords(keys.size());
  for (size_t d = 0; d < keys.size(); ++d) {
    PARADISE_ASSIGN_OR_RETURN(coords[d], dims_[d]->RowOfKey(keys[d]));
  }
  for (size_t m = 0; m < num_measures_; ++m) {
    PARADISE_RETURN_IF_ERROR(array_builders_[m]->Put(coords, values[m]));
  }
  return Status::OK();
}

Result<OlapArray> OlapArray::Builder::Finish() {
  if (!initialized_) return Status::InvalidArgument("call Init() first");
  std::vector<ChunkedArray> arrays;
  arrays.reserve(num_measures_);
  for (size_t m = 0; m < num_measures_; ++m) {
    PARADISE_ASSIGN_OR_RETURN(ChunkedArray array, array_builders_[m]->Finish());
    arrays.push_back(std::move(array));
  }

  OlapArray out;
  out.storage_ = storage_;
  out.name_ = name_;
  for (const DimensionTable* dim : dims_) {
    out.dim_names_.push_back(dim->name());
    out.dim_schemas_.push_back(dim->schema());
  }
  out.key_btrees_ = std::move(key_btrees_);
  out.attr_btree_roots_ = std::move(attr_btree_roots_);
  out.i2i_ = std::move(i2i_);
  out.arrays_ = std::move(arrays);

  PARADISE_ASSIGN_OR_RETURN(ObjectId meta_oid,
                            storage_->objects()->Create(out.SerializeMeta()));
  PARADISE_RETURN_IF_ERROR(storage_->SetRoot("olap_array." + name_, meta_oid));
  initialized_ = false;
  return out;
}

std::string OlapArray::SerializeMeta() const {
  std::string meta;
  meta.append(kMagic, sizeof(kMagic));
  AppendFixed32(&meta, static_cast<uint32_t>(dim_names_.size()));
  for (size_t d = 0; d < dim_names_.size(); ++d) {
    AppendFixed32(&meta, static_cast<uint32_t>(dim_names_[d].size()));
    meta.append(dim_names_[d]);
    const std::string schema_blob = dim_schemas_[d].Serialize();
    AppendFixed32(&meta, static_cast<uint32_t>(schema_blob.size()));
    meta.append(schema_blob);
    AppendFixed64(&meta, key_btrees_[d].root());
    for (PageId root : attr_btree_roots_[d]) AppendFixed64(&meta, root);
    meta.append(i2i_[d].Serialize());
  }
  AppendFixed32(&meta, static_cast<uint32_t>(arrays_.size()));
  for (const ChunkedArray& array : arrays_) {
    AppendFixed64(&meta, array.meta_oid());
  }
  return meta;
}

Result<ObjectId> OlapArray::PublishMeta() {
  // Copy-on-write republication: a compaction gave the measure arrays new
  // meta objects, so the ADT meta (which embeds their oids) is re-serialized
  // into a NEW object and the catalog root repointed at it. The previous
  // meta object stays readable for crash recovery until the caller retires
  // it after the next checkpoint commits.
  PARADISE_ASSIGN_OR_RETURN(ObjectId old_meta,
                            storage_->GetRoot("olap_array." + name_));
  PARADISE_ASSIGN_OR_RETURN(ObjectId meta_oid,
                            storage_->objects()->Create(SerializeMeta()));
  PARADISE_RETURN_IF_ERROR(storage_->SetRoot("olap_array." + name_, meta_oid));
  return old_meta;
}

Result<OlapArray> OlapArray::Open(StorageManager* storage,
                                  const std::string& name) {
  PARADISE_ASSIGN_OR_RETURN(uint64_t meta_oid,
                            storage->GetRoot("olap_array." + name));
  PARADISE_ASSIGN_OR_RETURN(std::string blob,
                            storage->objects()->Read(meta_oid));
  if (blob.size() < 8 || std::memcmp(blob.data(), kMagic, 4) != 0) {
    return Status::Corruption("object is not an OLAP array meta blob");
  }
  OlapArray out;
  out.storage_ = storage;
  out.name_ = name;
  const uint32_t num_dims = DecodeFixed32(blob.data() + 4);
  const char* p = blob.data() + 8;
  const char* end = blob.data() + blob.size();
  auto read32 = [&]() -> uint32_t {
    const uint32_t v = DecodeFixed32(p);
    p += 4;
    return v;
  };
  auto read64 = [&]() -> uint64_t {
    const uint64_t v = DecodeFixed64(p);
    p += 8;
    return v;
  };
  for (uint32_t d = 0; d < num_dims; ++d) {
    if (p + 4 > end) return Status::Corruption("OLAP meta truncated");
    const uint32_t name_len = read32();
    if (p + name_len + 4 > end) return Status::Corruption("meta truncated");
    out.dim_names_.emplace_back(p, name_len);
    p += name_len;
    const uint32_t schema_len = read32();
    if (p + schema_len + 8 > end) return Status::Corruption("meta truncated");
    PARADISE_ASSIGN_OR_RETURN(Schema schema,
                              Schema::Deserialize({p, schema_len}));
    p += schema_len;
    const PageId key_root = read64();
    PARADISE_ASSIGN_OR_RETURN(BTree key_tree,
                              BTree::Open(storage->pool(), key_root));
    out.key_btrees_.push_back(std::move(key_tree));
    std::vector<PageId> attr_roots(schema.num_columns());
    for (size_t col = 0; col < schema.num_columns(); ++col) {
      if (p + 8 > end) return Status::Corruption("meta truncated");
      attr_roots[col] = read64();
    }
    out.attr_btree_roots_.push_back(std::move(attr_roots));
    out.dim_schemas_.push_back(std::move(schema));
    size_t consumed = 0;
    PARADISE_ASSIGN_OR_RETURN(
        IndexToIndexArray i2i,
        IndexToIndexArray::Deserialize({p, static_cast<size_t>(end - p)},
                                       &consumed));
    p += consumed;
    out.i2i_.push_back(std::move(i2i));
  }
  if (p + 4 > end) return Status::Corruption("meta truncated");
  const uint32_t num_measures = read32();
  if (num_measures == 0) return Status::Corruption("OLAP array without measures");
  for (uint32_t m = 0; m < num_measures; ++m) {
    if (p + 8 > end) return Status::Corruption("meta truncated");
    const ObjectId array_meta = read64();
    PARADISE_ASSIGN_OR_RETURN(ChunkedArray array,
                              ChunkedArray::Open(storage, array_meta));
    out.arrays_.push_back(std::move(array));
  }
  return out;
}

std::vector<size_t> OlapArray::DimNumColumns() const {
  std::vector<size_t> out;
  out.reserve(dim_schemas_.size());
  for (const Schema& s : dim_schemas_) out.push_back(s.num_columns());
  return out;
}

Result<std::optional<uint32_t>> OlapArray::KeyToIndex(size_t d,
                                                      int32_t key) const {
  PARADISE_ASSIGN_OR_RETURN(std::optional<int64_t> idx,
                            key_btrees_[d].GetFirst(key));
  if (!idx.has_value()) return std::optional<uint32_t>{};
  return std::optional<uint32_t>(static_cast<uint32_t>(*idx));
}

Status OlapArray::AttrIndexList(size_t d, size_t col, int64_t normalized_value,
                                std::vector<uint32_t>* out) const {
  if (d >= num_dims() || col == 0 ||
      col >= dim_schemas_[d].num_columns()) {
    return Status::InvalidArgument("bad dimension/column for AttrIndexList");
  }
  PARADISE_ASSIGN_OR_RETURN(BTree tree,
                            BTree::Open(storage_->pool(),
                                        attr_btree_roots_[d][col]));
  std::vector<int64_t> values;
  PARADISE_RETURN_IF_ERROR(tree.GetValues(normalized_value, &values));
  out->reserve(out->size() + values.size());
  for (int64_t v : values) out->push_back(static_cast<uint32_t>(v));
  return Status::OK();
}

Result<std::optional<int64_t>> OlapArray::ReadCellByKeys(
    const std::vector<int32_t>& keys, size_t m) const {
  if (keys.size() != num_dims()) {
    return Status::InvalidArgument("key arity mismatch");
  }
  if (m >= arrays_.size()) {
    return Status::InvalidArgument("bad measure index " + std::to_string(m));
  }
  CellCoords coords(keys.size());
  for (size_t d = 0; d < keys.size(); ++d) {
    PARADISE_ASSIGN_OR_RETURN(std::optional<uint32_t> idx,
                              KeyToIndex(d, keys[d]));
    if (!idx.has_value()) {
      return Status::NotFound("key " + std::to_string(keys[d]) +
                              " not in dimension " + dim_names_[d]);
    }
    coords[d] = *idx;
  }
  return arrays_[m].GetCell(coords);
}

}  // namespace paradise
