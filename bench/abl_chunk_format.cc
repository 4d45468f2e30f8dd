// Codec ablation (DESIGN.md §4.3/§16): per-chunk storage format across the
// Data Set 2 density sweep. The paper always uses chunk-offset compression;
// we compare it against dense chunks, LZW-wrapped dense, diff-sequence
// compression (kDiffSequence) and the kAuto selector, reporting stored
// bytes (absolute, per chunk, and the reduction against the
// offset-compressed baseline), raw decode throughput over the stored
// chunks, the Figure 4 (Query 1) / Figure 8 (Query 2, low selectivity)
// scan times, and the warm serial §4.2 probe cost per cross-product
// candidate on olapd's probe shape. Query results are asserted identical
// across formats — the codec must change the bytes, never the answer.
#include <algorithm>
#include <chrono>
#include <vector>

#include "array/chunked_array.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/consolidate.h"
#include "gen/datasets.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

namespace {

/// Full decode pass over every stored chunk (read, view, decode each cell):
/// returns cells decoded per second (best of three passes).
double DecodeThroughput(const ChunkedArray& array) {
  double best_seconds = 1e30;
  uint64_t cells = 0;
  for (int pass = 0; pass < 3; ++pass) {
    cells = 0;
    int64_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    for (uint64_t c = 0; c < array.layout().num_chunks(); ++c) {
      if (array.ChunkIsEmpty(c)) continue;
      Result<std::string> blob = array.ReadChunkBlob(c);
      PARADISE_CHECK_OK(blob.status());
      Result<ChunkView> view = ChunkView::Make(*blob);
      PARADISE_CHECK_OK(view.status());
      view->ForEach([&](uint32_t off, int64_t value) {
        sink += value + off;
        ++cells;
      });
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // Keep the sink observable so the loop cannot be discarded.
    if (sink == 0x7fffffffffffffff) std::printf("#\n");
    if (seconds < best_seconds) best_seconds = seconds;
  }
  return best_seconds > 0 ? static_cast<double>(cells) / best_seconds : 0.0;
}

/// olapd's ad-hoc probe shape: an equality on hX2 (cardinality 10) of three
/// dimensions, star selectivity 1e-3, answered by the §4.2 probe; grouped by
/// hX1 of the fourth.
query::ConsolidationQuery ProbeQuery() {
  query::ConsolidationQuery q;
  q.dims.resize(4);
  for (size_t d = 0; d < 3; ++d) {
    q.dims[d].selections.push_back(
        query::Selection{2, {query::Literal{gen::AttrValue(d, 2, 3)}}});
  }
  q.dims[3].group_by_col = 1;
  return q;
}

struct ProbeCost {
  double ns_per_candidate = 0;
  uint64_t candidates = 0;
  query::GroupedResult result;
};

/// Warm, serial §4.2 probe: one unmeasured run fills the buffer pool, then
/// the median over 31 runs of wall time per cross-product candidate.
ProbeCost MeasureProbe(const OlapArray& olap,
                       const query::ConsolidationQuery& q) {
  constexpr int kRuns = 31;
  ProbeCost cost;
  std::vector<double> ns;
  for (int run = 0; run <= kRuns; ++run) {
    ArrayConsolidateStats stats;
    const auto start = std::chrono::steady_clock::now();
    Result<query::GroupedResult> r = ArrayConsolidate(olap, q, nullptr, &stats);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    PARADISE_CHECK_OK(r.status());
    if (run == 0) {
      cost.candidates = stats.candidates;
      cost.result = std::move(r).value();
      continue;
    }
    ns.push_back(seconds * 1e9 / static_cast<double>(stats.candidates));
  }
  std::nth_element(ns.begin(), ns.begin() + kRuns / 2, ns.end());
  cost.ns_per_candidate = ns[kRuns / 2];
  return cost;
}

}  // namespace

int main() {
  std::printf("# Codec ablation — chunk format vs density on 40x40x40x100\n");
  std::printf(
      "density_percent,format,array_bytes,bytes_per_chunk,"
      "reduction_vs_offset_pct,decode_cells_per_sec,q1_seconds,q2_seconds,"
      "q1_disk_reads,probe_ns_per_candidate\n");
  BenchReport report(
      "codec",
      "chunk codec ablation on 40x40x40x100: stored bytes, decode "
      "throughput, Figure 4/8 scan times and the warm serial S=1e-3 probe "
      "cost per candidate per format");
  const query::ConsolidationQuery probe_query = ProbeQuery();
  for (double pct : {0.5, 2.0, 10.0}) {
    uint64_t offset_bytes = 0;
    uint64_t baseline_groups = 0;
    query::GroupedResult baseline_probe;
    for (ChunkFormat format :
         {ChunkFormat::kOffsetCompressed, ChunkFormat::kDense,
          ChunkFormat::kAuto, ChunkFormat::kLzwDense,
          ChunkFormat::kDiffSequence}) {
      DatabaseOptions options = PaperOptions();
      options.array.chunk_format = format;
      BenchFile file("abl_codec");
      std::unique_ptr<Database> db =
          MustBuild(file.path(), gen::DataSet2(pct / 100.0), options);
      const Execution q1 = MustRun(db.get(), EngineKind::kArray,
                                   gen::Query1(4));
      const Execution q2 = MustRun(db.get(), EngineKind::kArray,
                                   gen::Query2(4));
      const ProbeCost probe = MeasureProbe(*db->olap(), probe_query);
      if (format == ChunkFormat::kOffsetCompressed) {
        baseline_groups = q1.result.num_groups();
        baseline_probe = probe.result;
      } else if (q1.result.num_groups() != baseline_groups ||
                 !probe.result.SameAs(baseline_probe)) {
        std::fprintf(stderr, "bench: format changed the answer\n");
        std::exit(1);
      }
      const ChunkedArray& array = db->olap()->array();
      const uint64_t array_bytes = array.TotalDataBytes();
      uint64_t chunks = 0;
      for (uint64_t c = 0; c < db->olap()->layout().num_chunks(); ++c) {
        if (!array.ChunkIsEmpty(c)) ++chunks;
      }
      if (format == ChunkFormat::kOffsetCompressed) {
        offset_bytes = array_bytes;
      }
      const double reduction =
          offset_bytes > 0
              ? 100.0 * (1.0 - static_cast<double>(array_bytes) /
                                   static_cast<double>(offset_bytes))
              : 0.0;
      const double bytes_per_chunk =
          chunks > 0 ? static_cast<double>(array_bytes) /
                           static_cast<double>(chunks)
                     : 0.0;
      const double decode_rate = DecodeThroughput(array);
      char density[32];
      std::snprintf(density, sizeof(density), "%.1f", pct);
      std::printf("%.1f,%s,%llu,%.1f,%.1f,%.3e,%.4f,%.4f,%llu,%.1f\n", pct,
                  std::string(ChunkFormatToString(format)).c_str(),
                  static_cast<unsigned long long>(array_bytes),
                  bytes_per_chunk, reduction, decode_rate, q1.stats.seconds,
                  q2.stats.seconds,
                  static_cast<unsigned long long>(q1.stats.io.disk_reads),
                  probe.ns_per_candidate);
      report.Add({{"density_percent", density},
                  {"format", std::string(ChunkFormatToString(format))},
                  {"query", "q1"}},
                 EngineKind::kArray, q1,
                 {{"array_bytes", static_cast<double>(array_bytes)},
                  {"bytes_per_chunk", bytes_per_chunk},
                  {"reduction_vs_offset_pct", reduction},
                  {"decode_cells_per_sec", decode_rate}});
      report.Add({{"density_percent", density},
                  {"format", std::string(ChunkFormatToString(format))},
                  {"query", "q2"}},
                 EngineKind::kArray, q2);
      ExecutionStats probe_stats;
      probe_stats.seconds =
          probe.ns_per_candidate * static_cast<double>(probe.candidates) / 1e9;
      report.Add({{"density_percent", density},
                  {"format", std::string(ChunkFormatToString(format))},
                  {"query", "probe"}},
                 "array-warm-serial", probe.result.num_groups(), probe_stats,
                 {{"probe_ns_per_candidate", probe.ns_per_candidate},
                  {"candidates", static_cast<double>(probe.candidates)}});
    }
  }
  report.WriteFile();
  return 0;
}
