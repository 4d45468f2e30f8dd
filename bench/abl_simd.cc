// Ablation: vectorized consolidation kernels (core/kernels/) — the scalar
// magic-reciprocal decode vs the AVX2 one, forced via ForceIsa on the same
// binary, so the delta is exactly the decode implementation. Three
// configurations per ISA:
//
//   decode_batch    pure offset->flat-index decode on synthetic offsets
//                   (the vectorized step in isolation)
//   array_serial    ArrayConsolidate, Query 1, warm pool
//   array_parallel  ArrayConsolidate at 4 workers, Query 1, warm pool
//   array_select    ArrayConsolidate, Query 2, warm pool
//
// Writes BENCH_simd.json (shared bench schema) with a speedup_vs_scalar
// extra per run, so the scalar->vector ratio is one jq expression away.
#include <algorithm>
#include <cinttypes>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "core/consolidate.h"
#include "core/kernels/consolidate_kernel.h"
#include "gen/datasets.h"

using namespace paradise;         // NOLINT(build/namespaces)
using namespace paradise::bench;  // NOLINT(build/namespaces)

namespace {

void Die(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  std::exit(1);
}

/// Best-of-reps wall time of `fn`.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

/// The decode microbenchmark: DataSet 1's 20x20x20x10 chunk shape, all four
/// dimensions grouped at the hX1 cardinality, a large batch of valid
/// offsets. Returns decoded offsets per second.
double DecodeThroughput(kernels::Isa isa) {
  const std::vector<uint32_t> dims = {20, 20, 20, 10};
  std::vector<std::pair<size_t, std::vector<uint64_t>>> grouped;
  uint64_t stride = 1;
  for (size_t d = dims.size(); d-- > 0;) {
    std::vector<uint64_t> contribution(dims[d]);
    for (size_t i = 0; i < contribution.size(); ++i) {
      contribution[i] = (i % gen::kGroupByCardinality) * stride;
    }
    grouped.insert(grouped.begin(), {d, std::move(contribution)});
    stride *= gen::kGroupByCardinality;
  }
  kernels::KernelTables tables;
  tables.BuildRaw(dims, grouped);

  constexpr size_t kOffsets = 1u << 16;
  constexpr int kInnerReps = 64;
  std::vector<uint32_t> offsets(kOffsets);
  std::mt19937 rng(12345);
  const uint32_t capacity = 20 * 20 * 20 * 10;
  for (uint32_t& off : offsets) off = rng() % capacity;
  std::vector<uint64_t> flat_idx(kOffsets);

  kernels::ForceIsa(isa);
  kernels::DecodeBatchFn decode = kernels::ActiveDecodeBatch();
  uint64_t sink = 0;
  const double seconds = BestSeconds(5, [&] {
    for (int rep = 0; rep < kInnerReps; ++rep) {
      decode(offsets.data(), offsets.size(), tables, flat_idx.data());
      sink += flat_idx[rep % kOffsets];
    }
  });
  kernels::ForceIsa(std::nullopt);
  if (sink == 0xdeadbeef) std::printf("#");  // keep the work observable
  return static_cast<double>(kOffsets) * kInnerReps / seconds;
}

struct ConfigResult {
  double seconds = 0.0;
  uint64_t groups = 0;
};

}  // namespace

int main() {
  kernels::Isa detected;
  {
    kernels::ForceIsa(std::nullopt);
    detected = kernels::ActiveIsa();
  }
  const std::vector<kernels::Isa> isas =
      detected == kernels::Isa::kScalar
          ? std::vector<kernels::Isa>{kernels::Isa::kScalar}
          : std::vector<kernels::Isa>{kernels::Isa::kScalar, detected};

  std::printf("# Ablation — consolidation kernel ISA (detected: %s)\n",
              std::string(kernels::IsaName(detected)).c_str());
  std::printf("config,isa,seconds,speedup_vs_scalar,throughput_cells_per_s\n");

  BenchReport report(
      "simd", "scalar vs vectorized consolidation kernels (ForceIsa on one "
              "binary; DataSet1(100), warm pool; detected isa: " +
                  std::string(kernels::IsaName(detected)) + ")");

  // --- decode_batch: the vectorized step in isolation. -------------------
  {
    double scalar_rate = 0.0;
    for (const kernels::Isa isa : isas) {
      const double rate = DecodeThroughput(isa);
      if (isa == kernels::Isa::kScalar) scalar_rate = rate;
      const double speedup = scalar_rate > 0 ? rate / scalar_rate : 1.0;
      std::printf("decode_batch,%s,%.4f,%.2f,%.3e\n",
                  std::string(kernels::IsaName(isa)).c_str(),
                  (1u << 16) * 64 / rate, speedup, rate);
      ExecutionStats stats;
      stats.seconds = (1u << 16) * 64 / rate;
      stats.kernel_isa = std::string(kernels::IsaName(isa));
      report.Add({{"config", "decode_batch"},
                  {"isa", std::string(kernels::IsaName(isa))}},
                 "kernel", 0, stats,
                 {{"speedup_vs_scalar", speedup},
                  {"throughput_cells_per_s", rate}});
    }
  }

  // --- engine configurations on DataSet 1 (40x40x40x100), warm pool. -----
  BenchFile file("abl_simd");
  std::unique_ptr<Database> db =
      MustBuild(file.path(), gen::DataSet1(100), PaperOptions());
  const query::ConsolidationQuery q1 = gen::Query1(4);
  const query::ConsolidationQuery q2 = gen::Query2(4);
  // Warm the buffer pool once; every timed run below hits memory, so the
  // ISA delta is CPU, not disk.
  if (auto r = ArrayConsolidate(*db->olap(), q1); !r.ok()) Die(r.status());

  struct EngineConfig {
    const char* name;
    std::function<ConfigResult()> run;
  };
  const std::vector<EngineConfig> configs = {
      {"array_serial",
       [&] {
         Result<query::GroupedResult> r = ArrayConsolidate(*db->olap(), q1);
         if (!r.ok()) Die(r.status());
         return ConfigResult{0.0, r->num_groups()};
       }},
      {"array_parallel4",
       [&] {
         ArrayConsolidateOptions options;
         options.num_threads = 4;
         Result<query::GroupedResult> r =
             ArrayConsolidate(*db->olap(), q1, nullptr, nullptr, options);
         if (!r.ok()) Die(r.status());
         return ConfigResult{0.0, r->num_groups()};
       }},
      {"array_select",
       [&] {
         Result<query::GroupedResult> r = ArrayConsolidate(*db->olap(), q2);
         if (!r.ok()) Die(r.status());
         return ConfigResult{0.0, r->num_groups()};
       }},
  };

  for (const EngineConfig& config : configs) {
    double scalar_seconds = 0.0;
    for (const kernels::Isa isa : isas) {
      kernels::ForceIsa(isa);
      uint64_t groups = 0;
      const double seconds =
          BestSeconds(3, [&] { groups = config.run().groups; });
      kernels::ForceIsa(std::nullopt);
      if (isa == kernels::Isa::kScalar) scalar_seconds = seconds;
      const double speedup = seconds > 0 ? scalar_seconds / seconds : 1.0;
      std::printf("%s,%s,%.4f,%.2f,-\n", config.name,
                  std::string(kernels::IsaName(isa)).c_str(), seconds,
                  speedup);
      ExecutionStats stats;
      stats.seconds = seconds;
      stats.kernel_isa = std::string(kernels::IsaName(isa));
      report.Add({{"config", config.name},
                  {"isa", std::string(kernels::IsaName(isa))}},
                 "array", groups, stats, {{"speedup_vs_scalar", speedup}});
    }
  }

  report.WriteFile();
  return 0;
}
