#include "core/aggregate_registry.h"

#include "common/coding.h"

namespace paradise {

namespace {
constexpr char kCatalogPrefix[] = "agg.";

void AppendString(std::string* out, const std::string& s) {
  AppendFixed32(out, static_cast<uint32_t>(s.size()));
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
  AppendFixed32(&out, static_cast<uint32_t>(measure));
  AppendFixed32(&out, static_cast<uint32_t>(grouped.size()));
  for (const Entry& e : grouped) {
    AppendFixed32(&out, static_cast<uint32_t>(e.base_dim));
    AppendFixed32(&out, static_cast<uint32_t>(e.level_col));
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

Result<AggregateProvenance> RegisterAggregate(
    StorageManager* storage, const std::string& name,
    const std::string& base_cube, const query::ConsolidationQuery& q) {
  AggregateProvenance provenance;
  provenance.name = name;
  provenance.base_cube = base_cube;
  provenance.measure = q.measure;
  for (size_t d = 0; d < q.dims.size(); ++d) {
    if (q.dims[d].group_by_col.has_value()) {
      provenance.grouped.push_back(
          AggregateProvenance::Entry{d, *q.dims[d].group_by_col});
    }
  }
  const std::string blob = provenance.Serialize();
  const std::string key = kCatalogPrefix + name;
  if (storage->HasRoot(key)) {
    PARADISE_ASSIGN_OR_RETURN(uint64_t oid, storage->GetRoot(key));
    PARADISE_RETURN_IF_ERROR(storage->objects()->Overwrite(oid, blob));
  } else {
    PARADISE_ASSIGN_OR_RETURN(ObjectId oid, storage->objects()->Create(blob));
    PARADISE_RETURN_IF_ERROR(storage->SetRoot(key, oid));
  }
  return provenance;
}

Result<AggregateMap> OpenAggregates(StorageManager* storage,
                                    const std::string& base_cube) {
  AggregateMap out;
  for (const auto& [key, oid] : storage->catalog()) {
    if (key.rfind(kCatalogPrefix, 0) != 0) continue;
    PARADISE_ASSIGN_OR_RETURN(std::string blob, storage->objects()->Read(oid));
    PARADISE_ASSIGN_OR_RETURN(AggregateProvenance provenance,
                              AggregateProvenance::Deserialize(blob));
    if (provenance.base_cube != base_cube) continue;
    const std::string name = provenance.name;
    PARADISE_ASSIGN_OR_RETURN(OlapArray cube, OlapArray::Open(storage, name));
    out[name] = std::make_shared<const RegisteredAggregate>(
        RegisteredAggregate{std::move(provenance), std::move(cube)});
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

std::optional<AggregateMatch> ChooseAggregate(
    const AggregateMap& aggregates, const OlapArray& base,
    const query::ConsolidationQuery& q) {
  // Fewest result dimensions (a proxy for size); in name order, so ties go
  // to the first name.
  std::optional<AggregateMatch> best;
  size_t best_dims = 0;
  for (const auto& [name, agg] : aggregates) {
    const AggregateProvenance& p = agg->provenance;
    if (best && best_dims <= p.grouped.size()) continue;
    std::optional<query::ConsolidationQuery> rewritten =
        RewriteForAggregate(q, p, base.num_dims());
    if (!rewritten.has_value() || !RollsUpFunctionally(q, p, base)) continue;
    best = AggregateMatch{agg, std::move(*rewritten)};
    best_dims = p.grouped.size();
  }
  return best;
}

}  // namespace paradise
