// Ablation: §4.2 optimization 1 — skipping chunks that overlap no
// cross-product element — toggled off. Reports Query 2 time and chunk reads
// with and without the skip, across selectivities on the 40x40x40x1000
// array, where chunk skipping matters most (800 chunks, few selected).
#include "bench_json.h"
#include "bench_util.h"
#include "core/consolidate.h"
#include "gen/datasets.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

int main() {
  std::printf("# Ablation — chunk skipping in the selection algorithm\n");
  std::printf(
      "per_dim_selectivity,skip,seconds,chunks_read,chunks_skipped,"
      "candidates,hits\n");
  BenchReport report("abl_chunk_skip",
                     "chunk skipping in the selection algorithm (Query 2)");
  for (uint32_t card : {2u, 5u, 10u}) {
    BenchFile file("abl_chunkskip");
    std::unique_ptr<Database> db = MustBuild(
        file.path(), gen::DataSet1(1000, /*select_cardinality=*/card),
        PaperOptions());
    const query::ConsolidationQuery q = gen::Query2(4);
    for (bool skip : {true, false}) {
      if (auto st = db->DropCaches(); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      ArrayConsolidateOptions options;
      options.skip_non_overlapping_chunks = skip;
      ArrayConsolidateStats stats;
      Stopwatch watch;
      Result<query::GroupedResult> result =
          ArrayConsolidate(*db->olap(), q, nullptr, &stats, options);
      const double seconds = watch.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      std::printf("1/%u,%s,%.4f,%llu,%llu,%llu,%llu\n", card,
                  skip ? "on" : "off", seconds,
                  static_cast<unsigned long long>(stats.chunks_read),
                  static_cast<unsigned long long>(stats.chunks_skipped),
                  static_cast<unsigned long long>(stats.candidates),
                  static_cast<unsigned long long>(stats.hits));
      // This bench times the core algorithm directly, so it assembles the
      // shared stats object itself (aux = chunks read, the §4.2 convention).
      ExecutionStats exec_stats;
      exec_stats.seconds = seconds;
      exec_stats.aux = stats.chunks_read;
      report.Add({{"per_dim_selectivity", "1/" + std::to_string(card)},
                  {"skip", skip ? "on" : "off"}},
                 "array", result->num_groups(), exec_stats,
                 {{"chunks_skipped", static_cast<double>(stats.chunks_skipped)},
                  {"candidates", static_cast<double>(stats.candidates)},
                  {"hits", static_cast<double>(stats.hits)}});
    }
  }
  report.WriteFile();
  return 0;
}
