// Retail analytics: the paper's running example (§2) at a realistic size —
// a Sales cube over Product (type -> category), Store (city -> region) and
// Time (month -> quarter) — exercised with the full query repertoire:
// consolidations at several hierarchy levels, drill-down via selection, and
// a comparison of all four engines on the same queries.
#include <cstdio>
#include <filesystem>

#include "common/random.h"
#include "query/engine.h"
#include "schema/database.h"

using namespace paradise;  // NOLINT(build/namespaces)

namespace {

struct Hierarchy {
  std::vector<std::string> fine;    // per member: level-1 value
  std::vector<std::string> coarse;  // per member: level-2 value
};

/// Products: 60 members, 12 types, 4 categories.
Hierarchy MakeProducts() {
  const char* categories[] = {"food", "drink", "home", "outdoors"};
  Hierarchy h;
  for (int p = 0; p < 60; ++p) {
    const int type = p % 12;
    h.fine.push_back("type" + std::to_string(type));
    h.coarse.push_back(categories[type % 4]);
  }
  return h;
}

/// Stores: 30 members, 10 cities, 3 regions.
Hierarchy MakeStores() {
  const char* regions[] = {"west", "midwest", "east"};
  Hierarchy h;
  for (int s = 0; s < 30; ++s) {
    const int city = s % 10;
    h.fine.push_back("city" + std::to_string(city));
    h.coarse.push_back(regions[city % 3]);
  }
  return h;
}

/// Time: 24 months over 8 quarters.
Hierarchy MakeMonths() {
  Hierarchy h;
  for (int t = 0; t < 24; ++t) {
    h.fine.push_back("m" + std::to_string(t));
    h.coarse.push_back("q" + std::to_string(t / 3));
  }
  return h;
}

Status LoadDimension(Database* db, size_t d, const Schema& schema,
                     const Hierarchy& h) {
  for (size_t key = 0; key < h.fine.size(); ++key) {
    Tuple row(&schema);
    row.SetInt32(0, static_cast<int32_t>(key));
    PARADISE_RETURN_IF_ERROR(row.SetString(1, h.fine[key]));
    PARADISE_RETURN_IF_ERROR(row.SetString(2, h.coarse[key]));
    PARADISE_RETURN_IF_ERROR(db->AppendDimensionRow(d, row));
  }
  return Status::OK();
}

void PrintResult(Database* db, const query::ConsolidationQuery& q,
                 const query::GroupedResult& result, size_t max_rows) {
  for (const std::string& c : result.group_columns()) {
    std::printf("%-18s", c.c_str());
  }
  std::printf("%s\n", "sum(volume)");
  size_t shown = 0;
  for (const query::ResultRow& row : result.rows()) {
    if (shown++ >= max_rows) {
      std::printf("  ... (%zu more groups)\n", result.rows().size() - max_rows);
      break;
    }
    size_t g = 0;
    for (size_t d = 0; d < q.dims.size(); ++d) {
      if (!q.dims[d].group_by_col.has_value()) continue;
      auto dict = db->dim(d).Dictionary(*q.dims[d].group_by_col);
      PARADISE_CHECK_OK(dict.status());
      std::printf("%-18s", (*dict)->code_to_display[row.group[g]].c_str());
      ++g;
    }
    std::printf("%lld\n", static_cast<long long>(row.agg.sum));
  }
}

// Returns false when a relational engine's answer differs from the array
// engine's.
bool RunAndReport(Database* db, const char* title,
                  const query::ConsolidationQuery& q, size_t max_rows = 8) {
  std::printf("\n=== %s ===\n", title);
  auto array = RunQuery(db, EngineKind::kArray, q);
  PARADISE_CHECK_OK(array.status());
  PrintResult(db, q, array->result, max_rows);
  // Cross-check with every applicable relational engine.
  std::printf("[array %.2f ms", array->stats.seconds * 1e3);
  bool all_match = true;
  for (EngineKind kind : {EngineKind::kStarJoin, EngineKind::kLeftDeep,
                          EngineKind::kBitmap}) {
    if (kind == EngineKind::kBitmap && !q.HasSelection()) continue;
    auto exec = RunQuery(db, kind, q);
    PARADISE_CHECK_OK(exec.status());
    const bool match = exec->result.SameAs(array->result);
    all_match = all_match && match;
    std::printf(" | %s %.2f ms%s",
                std::string(EngineKindToString(kind)).c_str(),
                exec->stats.seconds * 1e3, match ? "" : " (MISMATCH!)");
  }
  std::printf("]\n");
  return all_match;
}

}  // namespace

int main() {
  const std::string path =
      (std::filesystem::temp_directory_path() / "paradise_retail.db").string();
  std::remove(path.c_str());

  StarSchema schema;
  schema.cube_name = "sales";
  schema.measures = {"volume", "revenue"};
  schema.dims = {
      DimensionSpec{"product",
                    {{"pid", ColumnType::kInt32},
                     {"type", ColumnType::kString16},
                     {"category", ColumnType::kString16}}},
      DimensionSpec{"store",
                    {{"sid", ColumnType::kInt32},
                     {"city", ColumnType::kString16},
                     {"region", ColumnType::kString16}}},
      DimensionSpec{"time",
                    {{"tid", ColumnType::kInt32},
                     {"month", ColumnType::kString16},
                     {"quarter", ColumnType::kString16}}},
  };

  auto db = Database::Create(path, schema, DatabaseOptions{});
  PARADISE_CHECK_OK(db.status());
  PARADISE_CHECK_OK(
      LoadDimension(db->get(), 0, schema.dims[0].ToSchema(), MakeProducts()));
  PARADISE_CHECK_OK(
      LoadDimension(db->get(), 1, schema.dims[1].ToSchema(), MakeStores()));
  PARADISE_CHECK_OK(
      LoadDimension(db->get(), 2, schema.dims[2].ToSchema(), MakeMonths()));

  // Facts: ~15 % of the 60x30x24 cube sells, uniformly. Two measures per
  // cell (§2's M = {m_1..m_p}): units sold and revenue.
  PARADISE_CHECK_OK((*db)->BeginFacts());
  Random rng(2026);
  uint64_t facts = 0;
  for (int32_t p = 0; p < 60; ++p) {
    for (int32_t s = 0; s < 30; ++s) {
      for (int32_t t = 0; t < 24; ++t) {
        if (!rng.Bernoulli(0.15)) continue;
        const int64_t volume = rng.UniformRange(1, 500);
        const int64_t unit_price = rng.UniformRange(2, 40);
        PARADISE_CHECK_OK(
            (*db)->AppendFact({p, s, t}, {volume, volume * unit_price}));
        ++facts;
      }
    }
  }
  PARADISE_CHECK_OK((*db)->FinishLoad());
  std::printf("loaded %llu facts into a 60x30x24 cube (%.1f%% dense)\n",
              static_cast<unsigned long long>(facts),
              100.0 * static_cast<double>(facts) / (60 * 30 * 24));

  // Q1: revenue by category and region.
  query::ConsolidationQuery by_cat_region;
  by_cat_region.dims.resize(3);
  by_cat_region.dims[0].group_by_col = 2;  // category
  by_cat_region.dims[1].group_by_col = 2;  // region
  bool all_match = true;
  all_match &= RunAndReport(db->get(),
                            "volume by category x region (time collapsed)",
                            by_cat_region, 12);

  // Q2: quarterly trend for one category.
  query::ConsolidationQuery trend;
  trend.dims.resize(3);
  trend.dims[0].selections.push_back(
      query::Selection{2, {query::Literal{std::string("drink")}}});
  trend.dims[2].group_by_col = 2;  // quarter
  all_match &= RunAndReport(db->get(), "drink volume by quarter", trend, 10);

  // Q3: drill down — type breakdown within one region and one quarter.
  query::ConsolidationQuery drill;
  drill.dims.resize(3);
  drill.dims[0].group_by_col = 1;  // type
  drill.dims[1].selections.push_back(
      query::Selection{2, {query::Literal{std::string("west")}}});
  drill.dims[2].selections.push_back(
      query::Selection{2, {query::Literal{std::string("q3")}}});
  all_match &= RunAndReport(db->get(), "type breakdown in the west during q3",
                            drill, 12);

  // Q4: the second measure — revenue instead of unit volume.
  query::ConsolidationQuery revenue;
  revenue.dims.resize(3);
  revenue.dims[0].group_by_col = 2;  // category
  revenue.measure = 1;               // "revenue"
  all_match &=
      RunAndReport(db->get(), "REVENUE by category (measure #2)", revenue, 6);

  // Q5: multi-value selection (IN-list) over two regions.
  query::ConsolidationQuery inlist;
  inlist.dims.resize(3);
  inlist.dims[1].group_by_col = 1;  // city
  inlist.dims[1].selections.push_back(query::Selection{
      2,
      {query::Literal{std::string("west")}, query::Literal{std::string("east")}}});
  inlist.dims[2].group_by_col = 2;  // quarter
  all_match &= RunAndReport(db->get(),
                            "city x quarter volume for west+east regions",
                            inlist, 6);

  std::remove(path.c_str());
  if (!all_match) {
    std::fprintf(stderr, "a relational engine disagreed with the array engine\n");
    return 1;
  }
  return 0;
}
