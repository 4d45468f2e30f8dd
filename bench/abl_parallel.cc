// Ablation: parallel array consolidation (the paper's §6 future work) —
// Query 1 (no selection) and Query 2 (selection, §4.2) on Data Set 1's
// 40x40x40x1000 array across worker counts. Workers run the full per-chunk
// pipeline — fetch through the sharded buffer pool, decode, aggregate —
// with chunk read-ahead on the storage manager's background I/O pool; the
// 1-thread point is the serial algorithm, run inline with synchronous reads.
//
// Besides the CSV, the bench writes BENCH_abl_parallel.json in the shared
// bench schema (per path, threads → seconds / speedup plus buffer-pool
// counters) so the scaling curve can be tracked across commits.
#include <algorithm>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "core/consolidate.h"
#include "gen/datasets.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

namespace {

struct RunPoint {
  size_t threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;
  BufferPoolStats io;
};

/// One scaling curve: warm the pool once, then time each thread count on the
/// warm pool (the CPU-scaling measurement; cold runs would time the disk).
/// Each point is the best of `kReps` runs to damp scheduler noise.
template <typename RunFn>
std::vector<RunPoint> Sweep(Database* db, const std::vector<size_t>& counts,
                            RunFn&& run) {
  constexpr int kReps = 3;
  std::vector<RunPoint> points;
  double baseline = 0.0;
  for (size_t threads : counts) {
    RunPoint p;
    p.threads = threads;
    p.seconds = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      BufferPool* pool = db->storage()->pool();
      const BufferPoolStats before = pool->stats();
      Stopwatch watch;
      run(threads);
      const double seconds = watch.ElapsedSeconds();
      if (seconds < p.seconds) {
        p.seconds = seconds;
        p.io = pool->stats().Delta(before);
      }
    }
    if (threads == counts.front()) baseline = p.seconds;
    p.speedup = p.seconds > 0 ? baseline / p.seconds : 1.0;
    points.push_back(p);
  }
  return points;
}

void PrintCsv(const char* path_name, const std::vector<RunPoint>& points) {
  for (const RunPoint& p : points) {
    std::printf("%s,%zu,%.4f,%.2f,%llu,%llu,%llu,%llu\n", path_name, p.threads,
                p.seconds, p.speedup,
                static_cast<unsigned long long>(p.io.logical_reads),
                static_cast<unsigned long long>(p.io.disk_reads),
                static_cast<unsigned long long>(p.io.prefetched),
                static_cast<unsigned long long>(p.io.prefetch_hits));
  }
}

void Report(BenchReport* report, const char* path_name,
            const std::vector<RunPoint>& points) {
  for (const RunPoint& p : points) {
    ExecutionStats stats;
    stats.seconds = p.seconds;
    stats.io = p.io;
    report->Add({{"path", path_name}, {"threads", std::to_string(p.threads)}},
                "array", 0, stats, {{"speedup", p.speedup}});
  }
}

void Die(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  std::exit(1);
}

/// Runs the array executor at `threads` workers or dies.
void MustConsolidate(const OlapArray& array, const query::ConsolidationQuery& q,
                     size_t threads, ArrayConsolidateStats* stats = nullptr,
                     ArrayConsolidateOptions options = {}) {
  options.num_threads = threads;
  Result<query::GroupedResult> r =
      ArrayConsolidate(array, q, nullptr, stats, options);
  if (!r.ok()) Die(r.status());
}

}  // namespace

int main() {
  std::printf(
      "# Ablation — parallel consolidation (Data Set 1, 40x40x40x1000)\n");
  std::printf(
      "path,threads,seconds,speedup_vs_1,logical_reads,disk_reads,"
      "prefetched,prefetch_hits\n");
  BenchFile file("abl_parallel");
  std::unique_ptr<Database> db =
      MustBuild(file.path(), gen::DataSet1(1000), PaperOptions());

  std::vector<size_t> counts;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (threads > 2 * hw) break;
    counts.push_back(threads);
  }

  // No-selection path (§4.1 parallelized): Query 1, grouped on every dim.
  const query::ConsolidationQuery q1 = gen::Query1(4);
  if (auto st = db->DropCaches(); !st.ok()) Die(st);
  MustConsolidate(*db->olap(), q1, 2);  // warm-up: populate the pool once
  const std::vector<RunPoint> no_sel = Sweep(
      db.get(), counts, [&](size_t t) { MustConsolidate(*db->olap(), q1, t); });
  PrintCsv("no_selection", no_sel);

  // Selection path (§4.2 parallelized): Query 2, equality selection on hX2
  // of every dimension.
  const query::ConsolidationQuery q2 = gen::Query2(4);
  if (auto st = db->DropCaches(); !st.ok()) Die(st);
  MustConsolidate(*db->olap(), q2, 2);  // warm-up
  const std::vector<RunPoint> sel = Sweep(
      db.get(), counts, [&](size_t t) { MustConsolidate(*db->olap(), q2, t); });
  PrintCsv("selection", sel);

  // Skewed chunk layout: the same cube tiled into a handful of huge chunks,
  // the shape whole-chunk scheduling cannot balance — with more workers than
  // chunks, the extra threads idle. Morsel scheduling (core/morsel.h) splits
  // each chunk into cell ranges workers steal, so 8 threads stay busy on 2
  // chunks. min_cells = UINT32_MAX degenerates to the old whole-chunk
  // cursor; the default splits.
  std::printf("# skewed layout: 2 chunks of 1.6M cells, 8 workers\n");
  gen::GenConfig skew_config = gen::DataSet1(50);
  skew_config.chunk_extents = {40, 40, 40, 25};  // 2 chunks total
  BenchFile skew_file("abl_parallel_skew");
  std::unique_ptr<Database> skew_db =
      MustBuild(skew_file.path(), skew_config, PaperOptions());
  MustConsolidate(*skew_db->olap(), q1, 2);  // warm-up
  const size_t skew_threads = 8;
  ArrayConsolidateOptions chunk_cursor;
  chunk_cursor.min_cells = UINT32_MAX;
  std::vector<RunPoint> skew_points;
  ArrayConsolidateStats last_stats;
  for (const bool morsels : {false, true}) {
    const ArrayConsolidateOptions mo =
        morsels ? ArrayConsolidateOptions{} : chunk_cursor;
    RunPoint p;
    p.threads = skew_threads;
    p.seconds = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch watch;
      ArrayConsolidateStats stats;
      MustConsolidate(*skew_db->olap(), q1, skew_threads, &stats, mo);
      const double seconds = watch.ElapsedSeconds();
      if (seconds < p.seconds) {
        p.seconds = seconds;
        last_stats = stats;
      }
    }
    p.speedup = skew_points.empty()
                    ? 1.0
                    : skew_points.front().seconds / p.seconds;
    std::printf("%s,%zu,%.4f,%.2f,%llu,%llu,%llu,%llu\n",
                morsels ? "skewed_morsel" : "skewed_chunk_cursor",
                skew_threads, p.seconds, p.speedup,
                static_cast<unsigned long long>(last_stats.chunks_read),
                static_cast<unsigned long long>(last_stats.morsels),
                static_cast<unsigned long long>(last_stats.morsel_splits),
                static_cast<unsigned long long>(last_stats.morsel_steals));
    skew_points.push_back(p);
  }

  BenchReport report("abl_parallel",
                     "parallel consolidation scaling (DataSet1(1000), warm "
                     "pool, hardware_threads=" + std::to_string(hw) + ")");
  Report(&report, "no_selection", no_sel);
  Report(&report, "selection", sel);
  for (size_t i = 0; i < skew_points.size(); ++i) {
    ExecutionStats stats;
    stats.seconds = skew_points[i].seconds;
    report.Add({{"path", i == 0 ? "skewed_chunk_cursor" : "skewed_morsel"},
                {"threads", std::to_string(skew_threads)}},
               "array", 0, stats,
               {{"speedup_vs_chunk_cursor", skew_points[i].speedup}});
  }
  report.WriteFile();
  return 0;
}
