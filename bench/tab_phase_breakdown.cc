// Phase breakdown (paper §5.5.1): where the time goes in Query 1 on Data
// Set 1's 40x40x40x1000 array. The paper reports the fact-file scan alone
// costing ~3x the whole array algorithm, and relational value-based
// aggregation costing several times the array's position-based aggregation.
// This bench prints each engine's per-phase seconds so that split is
// directly visible. Every run is cold, so the phases include the pool drop
// (`drop-caches`); the `total` row is the engine's own time and excludes it.
#include "bench_util.h"
#include "gen/datasets.h"

using namespace paradise;        // NOLINT(build/namespaces)
using namespace paradise::bench; // NOLINT(build/namespaces)

namespace {

void PrintPhases(const char* dataset, EngineKind kind, const Execution& exec) {
  for (const auto& [phase, micros] : exec.stats.phases.phases()) {
    std::printf("%s,%s,%s,%.4f\n", dataset,
                std::string(EngineKindToString(kind)).c_str(), phase.c_str(),
                static_cast<double>(micros) * 1e-6);
  }
  std::printf("%s,%s,total,%.4f\n", dataset,
              std::string(EngineKindToString(kind)).c_str(),
              exec.stats.seconds);
}

}  // namespace

int main() {
  std::printf("# Phase breakdown — §5.5.1 scan/aggregate cost split\n");
  std::printf("dataset,engine,phase,seconds\n");
  for (uint32_t last : {100u, 1000u}) {
    BenchFile file("tab_phases");
    std::unique_ptr<Database> db =
        MustBuild(file.path(), gen::DataSet1(last), PaperOptions());
    const std::string dataset = "40x40x40x" + std::to_string(last);
    const query::ConsolidationQuery q1 = gen::Query1(4);
    PrintPhases(dataset.c_str(), EngineKind::kArray,
                MustRun(db.get(), EngineKind::kArray, q1));
    PrintPhases(dataset.c_str(), EngineKind::kStarJoin,
                MustRun(db.get(), EngineKind::kStarJoin, q1));
    const query::ConsolidationQuery q2 = gen::Query2(4);
    PrintPhases(dataset.c_str(), EngineKind::kArray,
                MustRun(db.get(), EngineKind::kArray, q2));
    PrintPhases(dataset.c_str(), EngineKind::kBitmap,
                MustRun(db.get(), EngineKind::kBitmap, q2));
  }
  return 0;
}
