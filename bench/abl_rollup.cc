// Ablation: answering roll-up queries from a materialized consolidation
// (the §4.1 "result is another ADT instance" design) vs re-consolidating the
// base cube. The consolidated ADT is orders of magnitude smaller, so
// repeated coarse queries become nearly free — the aggregate-table pattern
// the paper's ADT output design enables. The `transparent` rows ask the base
// database (RunQuery, array engine, cold) and let the aggregate registry
// answer from the materialized cube, which the Database keeps open: their
// disk reads match the `materialized` rows.
#include "bench_json.h"
#include "bench_util.h"
#include "core/consolidate.h"
#include "gen/datasets.h"
#include "query/engine.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

int main() {
  std::printf("# Ablation — roll-up from a materialized consolidation\n");
  std::printf("query,source,seconds,disk_reads,aggregate\n");
  BenchReport report("abl_rollup",
                     "roll-up from a materialized consolidation vs base cube");
  BenchFile file("abl_rollup");
  std::unique_ptr<Database> db =
      MustBuild(file.path(), gen::DataSet1(1000), PaperOptions());

  // Materialize the (h1, h1, h1, h1) consolidation once as a new ADT.
  query::ConsolidationQuery mid_q = gen::Query1(4);
  Stopwatch build_watch;
  Result<OlapArray> mid =
      db->MaterializeAggregate(mid_q, "agg_h1", ArrayOptions{});
  PARADISE_CHECK_OK(mid.status());
  std::printf("# materialization cost: %.4f s (one-time)\n",
              build_watch.ElapsedSeconds());

  // Roll-up: group every dimension at the coarser h2 level.
  for (int run = 0; run < 2; ++run) {
    // From the base cube (h2 is column 2 of the base dimensions).
    {
      PARADISE_CHECK_OK(db->DropCaches());
      query::ConsolidationQuery q;
      q.dims.resize(4);
      for (auto& d : q.dims) d.group_by_col = 2;
      const auto before = db->storage()->pool()->stats();
      Stopwatch watch;
      Result<query::GroupedResult> r = ArrayConsolidate(*db->olap(), q);
      PARADISE_CHECK_OK(r.status());
      ExecutionStats exec_stats;
      exec_stats.seconds = watch.ElapsedSeconds();
      exec_stats.io = db->storage()->pool()->stats().Delta(before);
      std::printf("h2_rollup_run%d,base_cube,%.4f,%llu,-\n", run,
                  exec_stats.seconds,
                  static_cast<unsigned long long>(exec_stats.io.disk_reads));
      report.Add({{"query", "h2_rollup_run" + std::to_string(run)},
                  {"source", "base_cube"}},
                 "array", r->num_groups(), exec_stats);
    }
    // From the materialized ADT (h2 is column 2 of the result dimensions,
    // whose members are h1 values).
    {
      PARADISE_CHECK_OK(db->DropCaches());
      query::ConsolidationQuery q;
      q.dims.resize(4);
      for (auto& d : q.dims) d.group_by_col = 2;
      const auto before = db->storage()->pool()->stats();
      Stopwatch watch;
      Result<query::GroupedResult> r = ArrayConsolidate(*mid, q);
      PARADISE_CHECK_OK(r.status());
      ExecutionStats exec_stats;
      exec_stats.seconds = watch.ElapsedSeconds();
      exec_stats.io = db->storage()->pool()->stats().Delta(before);
      std::printf("h2_rollup_run%d,materialized,%.4f,%llu,-\n", run,
                  exec_stats.seconds,
                  static_cast<unsigned long long>(exec_stats.io.disk_reads));
      report.Add({{"query", "h2_rollup_run" + std::to_string(run)},
                  {"source", "materialized"}},
                 "array", r->num_groups(), exec_stats);
    }
    // From the base database: the registry picks the aggregate.
    {
      query::ConsolidationQuery q;
      q.dims.resize(4);
      for (auto& d : q.dims) d.group_by_col = 2;
      Result<Execution> r = RunQuery(db.get(), EngineKind::kArray, q);
      PARADISE_CHECK_OK(r.status());
      if (r->stats.aggregate != "agg_h1") {
        std::fprintf(stderr, "transparent roll-up did not read agg_h1\n");
        return 1;
      }
      std::printf("h2_rollup_run%d,transparent,%.4f,%llu,%s\n", run,
                  r->stats.seconds,
                  static_cast<unsigned long long>(r->stats.io.disk_reads),
                  r->stats.aggregate.c_str());
      report.Add({{"query", "h2_rollup_run" + std::to_string(run)},
                  {"source", "transparent"}},
                 EngineKind::kArray, *r);
    }
  }
  report.WriteFile();
  return 0;
}
