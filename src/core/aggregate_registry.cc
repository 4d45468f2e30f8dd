#include "core/aggregate_registry.h"

#include "common/coding.h"
#include "core/consolidate.h"
#include "core/olap_array.h"

namespace paradise {

namespace {
constexpr char kCatalogPrefix[] = "agg.";

void AppendString(std::string* out, const std::string& s) {
  char scratch[4];
  EncodeFixed32(scratch, static_cast<uint32_t>(s.size()));
  out->append(scratch, 4);
  out->append(s);
}

// Whether every column `q` groups or selects coarser than the level `agg`
// stores its dimension at is a function of that level in the base cube.
bool RollsUpFunctionally(const query::ConsolidationQuery& q,
                         const AggregateProvenance& agg,
                         const OlapArray& base) {
  for (const AggregateProvenance::Entry& e : agg.grouped) {
    const query::DimensionQuery& dq = q.dims[e.base_dim];
    std::vector<size_t> cols;
    if (dq.group_by_col.has_value()) cols.push_back(*dq.group_by_col);
    for (const query::Selection& s : dq.selections) cols.push_back(s.attr_col);
    for (const size_t col : cols) {
      if (col > e.level_col && !base.i2i(e.base_dim)
                                    .FunctionalRollUp(e.level_col, col)
                                    .has_value()) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace

std::string AggregateProvenance::Serialize() const {
  std::string out;
  AppendString(&out, name);
  AppendString(&out, base_cube);
  char scratch[4];
  EncodeFixed32(scratch, static_cast<uint32_t>(measure));
  out.append(scratch, 4);
  EncodeFixed32(scratch, static_cast<uint32_t>(grouped.size()));
  out.append(scratch, 4);
  for (const Entry& e : grouped) {
    EncodeFixed32(scratch, static_cast<uint32_t>(e.base_dim));
    out.append(scratch, 4);
    EncodeFixed32(scratch, static_cast<uint32_t>(e.level_col));
    out.append(scratch, 4);
  }
  return out;
}

Result<AggregateProvenance> AggregateProvenance::Deserialize(
    std::string_view data) {
  const char* p = data.data();
  const char* end = data.data() + data.size();
  auto read_string = [&](std::string* out) -> Status {
    if (p + 4 > end) return Status::Corruption("provenance truncated");
    const uint32_t len = DecodeFixed32(p);
    p += 4;
    if (len > static_cast<size_t>(end - p)) {
      return Status::Corruption("provenance truncated");
    }
    out->assign(p, len);
    p += len;
    return Status::OK();
  };
  AggregateProvenance out;
  PARADISE_RETURN_IF_ERROR(read_string(&out.name));
  PARADISE_RETURN_IF_ERROR(read_string(&out.base_cube));
  if (p + 8 > end) return Status::Corruption("provenance truncated");
  out.measure = DecodeFixed32(p);
  p += 4;
  const uint32_t count = DecodeFixed32(p);
  p += 4;
  if (count > static_cast<size_t>(end - p) / 8) {
    return Status::Corruption("provenance entry count implausible");
  }
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.base_dim = DecodeFixed32(p);
    e.level_col = DecodeFixed32(p + 4);
    p += 8;
    out.grouped.push_back(e);
  }
  return out;
}

Status RegisterAggregate(StorageManager* storage,
                         const AggregateProvenance& provenance) {
  const std::string blob = provenance.Serialize();
  const std::string key = kCatalogPrefix + provenance.name;
  if (storage->HasRoot(key)) {
    PARADISE_ASSIGN_OR_RETURN(uint64_t oid, storage->GetRoot(key));
    return storage->objects()->Overwrite(oid, blob);
  }
  PARADISE_ASSIGN_OR_RETURN(ObjectId oid, storage->objects()->Create(blob));
  return storage->SetRoot(key, oid);
}

Result<std::vector<AggregateProvenance>> ListAggregates(
    StorageManager* storage) {
  std::vector<AggregateProvenance> out;
  for (const auto& [key, oid] : storage->catalog()) {
    if (key.rfind(kCatalogPrefix, 0) != 0) continue;
    PARADISE_ASSIGN_OR_RETURN(std::string blob, storage->objects()->Read(oid));
    PARADISE_ASSIGN_OR_RETURN(AggregateProvenance provenance,
                              AggregateProvenance::Deserialize(blob));
    out.push_back(std::move(provenance));
  }
  return out;
}

std::optional<query::ConsolidationQuery> RewriteForAggregate(
    const query::ConsolidationQuery& q, const AggregateProvenance& agg,
    size_t base_num_dims) {
  if (q.dims.size() != base_num_dims) return std::nullopt;
  // Only SUM of the materialized measure is derivable from stored sums.
  if (q.agg != query::AggFunc::kSum || q.measure != agg.measure) {
    return std::nullopt;
  }
  // Locate each base dimension in the aggregate.
  std::vector<int> result_dim_of_base(base_num_dims, -1);
  for (size_t r = 0; r < agg.grouped.size(); ++r) {
    if (agg.grouped[r].base_dim >= base_num_dims) return std::nullopt;
    result_dim_of_base[agg.grouped[r].base_dim] = static_cast<int>(r);
  }

  query::ConsolidationQuery rewritten;
  rewritten.dims.resize(agg.grouped.size());
  rewritten.agg = query::AggFunc::kSum;
  rewritten.measure = 0;

  for (size_t d = 0; d < base_num_dims; ++d) {
    const query::DimensionQuery& dq = q.dims[d];
    const int r = result_dim_of_base[d];
    if (r < 0) {
      // The aggregate collapsed this dimension: the query must not need it.
      if (dq.group_by_col.has_value() || !dq.selections.empty()) {
        return std::nullopt;
      }
      continue;
    }
    const size_t level = agg.grouped[r].level_col;
    // The result dimension's schema is: key + levels [level .. top], so a
    // base column c >= level maps to result column c - level + 1.
    if (dq.group_by_col.has_value()) {
      if (*dq.group_by_col < level) return std::nullopt;  // finer than stored
      rewritten.dims[r].group_by_col = *dq.group_by_col - level + 1;
    }
    for (const query::Selection& s : dq.selections) {
      if (s.attr_col < level) return std::nullopt;
      rewritten.dims[r].selections.push_back(
          query::Selection{s.attr_col - level + 1, s.values});
    }
  }
  return rewritten;
}

Result<std::optional<query::GroupedResult>> AnswerFromAggregates(
    StorageManager* storage, const std::string& base_cube,
    const query::ConsolidationQuery& q, std::string* used,
    const OlapArray* base) {
  PARADISE_ASSIGN_OR_RETURN(std::vector<AggregateProvenance> aggregates,
                            ListAggregates(storage));
  std::optional<OlapArray> opened_base;
  // Pick the applicable aggregate with the fewest result dimensions (a
  // proxy for size); ties broken by name for determinism.
  const AggregateProvenance* best = nullptr;
  query::ConsolidationQuery best_query;
  for (const AggregateProvenance& agg : aggregates) {
    if (agg.base_cube != base_cube) continue;
    std::optional<query::ConsolidationQuery> rewritten =
        RewriteForAggregate(q, agg, q.dims.size());
    if (!rewritten.has_value()) continue;
    if (base == nullptr) {
      PARADISE_ASSIGN_OR_RETURN(OlapArray opened,
                                OlapArray::Open(storage, base_cube));
      opened_base.emplace(std::move(opened));
      base = &*opened_base;
    }
    if (!RollsUpFunctionally(q, agg, *base)) continue;
    if (best == nullptr ||
        agg.grouped.size() < best->grouped.size() ||
        (agg.grouped.size() == best->grouped.size() &&
         agg.name < best->name)) {
      best = &agg;
      best_query = std::move(*rewritten);
    }
  }
  if (best == nullptr) return std::optional<query::GroupedResult>{};
  PARADISE_ASSIGN_OR_RETURN(OlapArray cube,
                            OlapArray::Open(storage, best->name));
  if (used != nullptr) *used = best->name;
  PARADISE_ASSIGN_OR_RETURN(query::GroupedResult result,
                            ArrayConsolidate(cube, best_query));
  return std::optional<query::GroupedResult>(std::move(result));
}

}  // namespace paradise
