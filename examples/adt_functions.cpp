// ADT function tour (paper §3.5): the OLAP Array ADT's full function set —
// cell read by dimension keys, cell write (an ingest Write + Commit, the
// only way a loaded cube's cells change), slicing, subset summation, and
// materializing a consolidation as a new persistent ADT instance — on a
// small inventory cube, including reopening the database to show
// persistence. Exits 1 if a write does not read back or the materialized
// cells disagree with the query engine.
#include <cstdio>
#include <filesystem>

#include "core/consolidate.h"
#include "core/slice.h"
#include "gen/generator.h"
#include "ingest/ingest.h"
#include "query/engine.h"
#include "schema/loader.h"

using namespace paradise;  // NOLINT(build/namespaces)

int main() {
  const std::string path =
      (std::filesystem::temp_directory_path() / "paradise_adt.db").string();
  std::remove(path.c_str());

  // A 12x8x16 cube, ~30 % dense, two hierarchy levels per dimension.
  gen::GenConfig config;
  config.dims.resize(3);
  const uint32_t sizes[3] = {12, 8, 16};
  const uint32_t cards[3] = {4, 4, 4};
  for (size_t d = 0; d < 3; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {cards[d], 2};
  }
  config.num_valid_cells = 460;
  config.seed = 7;

  {
    auto db = BuildDatabaseFromConfig(path, config, DatabaseOptions{});
    PARADISE_CHECK_OK(db.status());
    PARADISE_CHECK_OK((*db)->storage()->Close());
  }

  // Reopen from disk: every ADT structure persists.
  auto db = Database::Open(path, DatabaseOptions{});
  PARADISE_CHECK_OK(db.status());
  OlapArray* cube = (*db)->olap();
  std::printf("reopened cube '%s': %zu dimensions, %llu valid cells, "
              "%llu chunks\n",
              cube->name().c_str(), cube->num_dims(),
              static_cast<unsigned long long>(cube->array().num_valid_cells()),
              static_cast<unsigned long long>(
                  cube->array().layout().num_chunks()));

  // --- Read function: probe a cell by its dimension keys. ---
  auto cell = cube->ReadCellByKeys({3, 2, 5});
  PARADISE_CHECK_OK(cell.status());
  std::printf("cell (3,2,5): %s\n",
              cell->has_value() ? std::to_string(**cell).c_str() : "invalid");

  // --- Write function: update a cell through ingest and read it back. ---
  PARADISE_CHECK_OK((*db)->ingest()->Write({3, 2, 5}, {777}));
  PARADISE_CHECK_OK((*db)->ingest()->Commit());
  cell = cube->ReadCellByKeys({3, 2, 5});
  PARADISE_CHECK_OK(cell.status());
  if (!cell->has_value() || **cell != 777) {
    std::fprintf(stderr, "cell (3,2,5) did not read back the written 777\n");
    return 1;
  }
  std::printf("cell (3,2,5) after write: %lld\n",
              static_cast<long long>(**cell));

  // --- Slice function: fix dim0 = key 3. ---
  auto slice = ArraySlice(*cube, 0, 3);
  PARADISE_CHECK_OK(slice.status());
  std::printf("slice dim0=3: %zu valid cells; first few:", slice->size());
  for (size_t i = 0; i < 4 && i < slice->size(); ++i) {
    std::printf(" (%u,%u,%u)=%lld", (*slice)[i].coords[0],
                (*slice)[i].coords[1], (*slice)[i].coords[2],
                static_cast<long long>((*slice)[i].value));
  }
  std::printf("\n");

  // --- Subset-sum function: aggregate a coordinate box. ---
  auto box_sum = ArraySumSubset(*cube, {{0, 6}, {0, 8}, {4, 12}});
  PARADISE_CHECK_OK(box_sum.status());
  std::printf("sum over box [0,6)x[0,8)x[4,12): sum=%lld count=%llu "
              "min=%lld max=%lld avg=%.2f\n",
              static_cast<long long>(box_sum->sum),
              static_cast<unsigned long long>(box_sum->count),
              static_cast<long long>(box_sum->min),
              static_cast<long long>(box_sum->max),
              box_sum->Finalize(query::AggFunc::kAvg));

  // --- Consolidation function: result is another ADT instance (§4.1). ---
  query::ConsolidationQuery q;
  q.dims.resize(3);
  q.dims[0].group_by_col = 1;
  q.dims[1].group_by_col = 1;
  auto consolidated =
      (*db)->MaterializeAggregate(q, "adt_tour", ArrayOptions{});
  PARADISE_CHECK_OK(consolidated.status());
  std::printf("materialized consolidation: %s, %llu groups stored\n",
              consolidated->layout().ToString().c_str(),
              static_cast<unsigned long long>(
                  consolidated->array().num_valid_cells()));

  // The materialized cube agrees with the query engine cell by cell (the
  // engine answers from the base cube: aggregates are bypassed once the
  // cube has taken an ingest commit).
  auto exec = RunQuery(db->get(), EngineKind::kArray, q);
  PARADISE_CHECK_OK(exec.status());
  bool all_match = exec->result.num_groups() ==
                   consolidated->array().num_valid_cells();
  for (const query::ResultRow& row : exec->result.rows()) {
    auto v = consolidated->ReadCellByKeys({row.group[0], row.group[1]});
    PARADISE_CHECK_OK(v.status());
    if (!v->has_value() || **v != row.agg.sum) all_match = false;
  }
  std::printf("materialized cells match the query result: %s\n",
              all_match ? "yes" : "NO");
  if (!all_match) return 1;

  // Aggregate sweep on the same grouping.
  for (query::AggFunc agg :
       {query::AggFunc::kSum, query::AggFunc::kCount, query::AggFunc::kMin,
        query::AggFunc::kMax, query::AggFunc::kAvg}) {
    query::ConsolidationQuery aq = q;
    aq.agg = agg;
    auto e = RunQuery(db->get(), EngineKind::kArray, aq);
    PARADISE_CHECK_OK(e.status());
    std::printf("  %-5s of first group = %.2f\n",
                std::string(query::AggFuncToString(agg)).c_str(),
                e->result.rows()[0].agg.Finalize(agg));
  }

  std::remove(path.c_str());
  return 0;
}
