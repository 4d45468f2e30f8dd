// Ablation: vectorized consolidation kernels (core/kernels/) — the scalar
// magic-reciprocal decode vs the AVX2 one, forced via ForceIsa on the same
// binary, so the delta is exactly the decode implementation. Three parts:
//
//   decode_batch    pure offset->flat-index decode on synthetic offsets of a
//                   20x20x20x10 tile (the step in isolation)
//   array_*         ArrayConsolidate on the cold_scan cubes (DataSet1(1000)
//                   and DataSet1(50)) and on Data Set 2 at 0.5 % density
//                   (400 cells per chunk, the sparse end of Figure 5),
//                   kAuto, warm pool: Query 1 serial and at 4 workers,
//                   Query 2 serial. Every ISA's GroupedResult must be SameAs
//                   the scalar one; a mismatch exits 1.
//   stage           the §4.1 kernel of Query 1 on the same cubes split into
//                   its four steps, ns per cell: KernelTables::Build, the
//                   dispatched block unpacker writing straight into the
//                   staging arrays (encodings without blocks: UnpackRange's
//                   batches, copied), offset->flat decode and ScatterBatch,
//                   each over a whole chunk before the next; `kernel` is
//                   Build + the fused AggregateView over the same chunks.
//                   The staged answer must equal the fused one and the
//                   executor's.
//
// Writes BENCH_simd.json (shared bench schema) with a speedup_vs_scalar
// extra per array/decode run and ns_per_cell, cells_per_chunk and
// outer_builds (the pass's outer-table rebuilds) extras per stage run.
#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "bench_json.h"
#include "bench_util.h"
#include "core/aggregate.h"
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

void Die(const std::string& why) {
  std::fprintf(stderr, "abl_simd: %s\n", why.c_str());
  std::exit(1);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Name(kernels::Isa isa) { return std::string(kernels::IsaName(isa)); }

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

/// A cube's non-empty chunks, read once (warm) and kept as views.
struct LoadedChunks {
  std::vector<uint64_t> chunk_no;
  std::vector<std::string> blobs;
  std::vector<ChunkView> views;
};

LoadedChunks LoadChunks(const OlapArray& olap) {
  LoadedChunks out;
  const ChunkedArray& data = olap.array(0);
  for (uint64_t c = 0; c < data.layout().num_chunks(); ++c) {
    if (data.ChunkIsEmpty(c)) continue;
    Result<std::string> blob = data.ReadChunkBlob(c);
    if (!blob.ok()) Die(blob.status());
    out.chunk_no.push_back(c);
    out.blobs.push_back(std::move(blob).value());
  }
  for (const std::string& blob : out.blobs) {
    Result<ChunkView> view = ChunkView::Make(blob);
    if (!view.ok()) Die(view.status());
    out.views.push_back(*view);
  }
  return out;
}

/// The kernel's unpack step over a whole chunk into `offsets` / `values`
/// (each sized num_valid): packed chunks block by block through the
/// dispatched unpacker, other encodings through UnpackRange's batches.
void UnpackChunk(const ChunkView& view, uint32_t* offsets, int64_t* values) {
  if (view.sparse() && view.encoding() != ChunkEncoding::kSparse) {
    const kernels::UnpackBlockFn unpack = kernels::ActiveUnpackBlock();
    for (uint32_t b = 0; b < view.num_blocks(); ++b) {
      unpack(view, b, offsets + b * kPackedChunkBlock,
             values + b * kPackedChunkBlock);
    }
    return;
  }
  size_t k = 0;
  kernels::UnpackRange(view, 0, kernels::PositionCount(view),
                       [&](const uint32_t* off, const int64_t* v, size_t m) {
                         std::copy(off, off + m, offsets + k);
                         std::copy(v, v + m, values + k);
                         k += m;
                       });
}

/// Summed seconds of each kernel step over one pass of every chunk.
struct StageSeconds {
  double build = 0, unpack = 0, decode = 0, scatter = 0, kernel = 0;
  uint64_t cells = 0, chunks = 0;
  uint64_t outer_builds = 0;  // KernelTables::Build calls that rebuilt outer
};

/// One pass of the §4.1 kernel over `chunks`, each step timed apart, then
/// the fused AggregateView over the same tables. Dies unless the staged and
/// fused flat arrays agree; returns the staged answer in *result.
StageSeconds TimeStages(const OlapArray& olap, const GroupSpec& spec,
                        const LoadedChunks& chunks,
                        query::GroupedResult* result) {
  const kernels::DecodeBatchFn decode = kernels::ActiveDecodeBatch();
  std::vector<query::AggState> staged(spec.num_groups);
  std::vector<query::AggState> fused(spec.num_groups);
  kernels::KernelTables tables;
  std::vector<uint32_t> offsets;
  std::vector<int64_t> values;
  std::vector<uint64_t> flat_idx;
  StageSeconds s;
  for (size_t i = 0; i < chunks.views.size(); ++i) {
    const ChunkView& view = chunks.views[i];
    const uint32_t n = view.num_valid();
    offsets.resize(n);
    values.resize(n);
    flat_idx.resize(n);
    const double t0 = Now();
    tables.Build(olap, spec, chunks.chunk_no[i]);
    const double t1 = Now();
    UnpackChunk(view, offsets.data(), values.data());
    const double t2 = Now();
    for (size_t b = 0; b < n; b += kernels::kBatch) {
      decode(offsets.data() + b, std::min<size_t>(kernels::kBatch, n - b), tables,
             flat_idx.data() + b);
    }
    const double t3 = Now();
    for (size_t b = 0; b < n; b += kernels::kBatch) {
      kernels::ScatterBatch(flat_idx.data() + b, values.data() + b,
                            std::min<size_t>(kernels::kBatch, n - b),
                            staged.data());
    }
    const double t4 = Now();
    kernels::AggregateView(view, tables, fused.data());
    const double t5 = Now();
    s.build += t1 - t0;
    s.unpack += t2 - t1;
    s.decode += t3 - t2;
    s.scatter += t4 - t3;
    s.kernel += (t1 - t0) + (t5 - t4);
    s.cells += n;
    ++s.chunks;
  }
  s.outer_builds = tables.outer_builds();
  if (staged != fused) Die("staged kernel disagrees with AggregateView");
  *result = FlatToGroupedResult(spec, staged, spec.GroupColumnNames(olap));
  return s;
}

struct Cube {
  const char* name;
  std::unique_ptr<Database> db;
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
              Name(detected).c_str());
  std::printf("config,cube,isa,seconds,speedup_vs_scalar,"
              "throughput_cells_per_s\n");

  BenchReport report(
      "simd", "scalar vs vectorized consolidation kernels (ForceIsa on one "
              "binary; DataSet1(1000), DataSet1(50) and DataSet2(0.005), "
              "kAuto, warm pool; detected isa: " + Name(detected) + ")");

  // --- decode_batch: the vectorized step in isolation. -------------------
  double scalar_rate = 0.0;
  for (const kernels::Isa isa : isas) {
    const double rate = DecodeThroughput(isa);
    if (isa == kernels::Isa::kScalar) scalar_rate = rate;
    const double speedup = scalar_rate > 0 ? rate / scalar_rate : 1.0;
    std::printf("decode_batch,-,%s,%.4f,%.2f,%.3e\n", Name(isa).c_str(),
                (1u << 16) * 64 / rate, speedup, rate);
    ExecutionStats stats;
    stats.seconds = (1u << 16) * 64 / rate;
    stats.kernel_isa = Name(isa);
    report.Add({{"config", "decode_batch"}, {"isa", Name(isa)}}, "kernel", 0,
               stats,
               {{"speedup_vs_scalar", speedup},
                {"throughput_cells_per_s", rate}});
  }

  // --- the cold_scan cubes (same 640k cells, seeds apart) and a sparse one.
  DatabaseOptions options = PaperOptions();
  options.array.chunk_format = ChunkFormat::kAuto;
  options.build_bitmap_indexes = false;  // the array engine never reads them
  BenchFile file1000("abl_simd_d1000");
  BenchFile file50("abl_simd_d50");
  BenchFile file_sparse("abl_simd_ds2");
  std::vector<Cube> cubes;
  cubes.push_back({"d1000", MustBuild(file1000.path(),
                                      gen::DataSet1(1000, 5, 1), options)});
  cubes.push_back({"d50", MustBuild(file50.path(), gen::DataSet1(50, 5, 2),
                                    options)});
  cubes.push_back({"ds2_0.5pct", MustBuild(file_sparse.path(),
                                           gen::DataSet2(0.005), options)});
  const query::ConsolidationQuery q1 = gen::Query1(4);
  const query::ConsolidationQuery q2 = gen::Query2(4);

  struct EngineConfig {
    const char* name;
    const query::ConsolidationQuery* q;
    size_t threads;
  };
  const EngineConfig configs[] = {{"array_serial", &q1, 1},
                                  {"array_parallel4", &q1, 4},
                                  {"array_select", &q2, 1}};
  struct StageRow {
    std::string cube, isa;
    StageSeconds s;
  };
  std::vector<StageRow> stage_rows;
  for (Cube& cube : cubes) {
    const OlapArray& olap = *cube.db->olap();
    // Warm the buffer pool once; every timed run below hits memory, so the
    // ISA delta is CPU, not disk.
    if (auto r = ArrayConsolidate(olap, q1); !r.ok()) Die(r.status());
    for (const EngineConfig& config : configs) {
      ArrayConsolidateOptions run;
      run.num_threads = config.threads;
      double scalar_seconds = 0.0;
      query::GroupedResult scalar_result;
      for (const kernels::Isa isa : isas) {
        kernels::ForceIsa(isa);
        query::GroupedResult result;
        const double seconds = BestSeconds(3, [&] {
          Result<query::GroupedResult> r =
              ArrayConsolidate(olap, *config.q, nullptr, nullptr, run);
          if (!r.ok()) Die(r.status());
          result = std::move(r).value();
        });
        kernels::ForceIsa(std::nullopt);
        if (isa == kernels::Isa::kScalar) {
          scalar_seconds = seconds;
          scalar_result = result;
        } else if (!result.SameAs(scalar_result)) {
          Die(std::string(config.name) + " on " + cube.name + ": " + Name(isa) +
              " result differs from scalar");
        }
        const double speedup = seconds > 0 ? scalar_seconds / seconds : 1.0;
        std::printf("%s,%s,%s,%.4f,%.2f,-\n", config.name, cube.name,
                    Name(isa).c_str(), seconds, speedup);
        ExecutionStats stats;
        stats.seconds = seconds;
        stats.kernel_isa = Name(isa);
        report.Add({{"config", config.name},
                    {"cube", cube.name},
                    {"isa", Name(isa)}},
                   "array", result.num_groups(), stats,
                   {{"speedup_vs_scalar", speedup}});
      }
    }

    // The kernel split into its steps, best of three passes per step.
    const LoadedChunks chunks = LoadChunks(olap);
    Result<GroupSpec> spec = GroupSpec::Make(olap, q1);
    if (!spec.ok()) Die(spec.status());
    Result<query::GroupedResult> want = ArrayConsolidate(olap, q1);
    if (!want.ok()) Die(want.status());
    for (const kernels::Isa isa : isas) {
      kernels::ForceIsa(isa);
      StageSeconds best;
      best.build = best.unpack = best.decode = best.scatter = best.kernel =
          1e300;
      for (int rep = 0; rep < 3; ++rep) {
        query::GroupedResult staged;
        const StageSeconds s = TimeStages(olap, *spec, chunks, &staged);
        if (!staged.SameAs(*want)) {
          Die(std::string("staged kernel on ") + cube.name + " under " +
              Name(isa) + " differs from ArrayConsolidate");
        }
        best.build = std::min(best.build, s.build);
        best.unpack = std::min(best.unpack, s.unpack);
        best.decode = std::min(best.decode, s.decode);
        best.scatter = std::min(best.scatter, s.scatter);
        best.kernel = std::min(best.kernel, s.kernel);
        best.cells = s.cells;
        best.chunks = s.chunks;
        best.outer_builds = s.outer_builds;
      }
      kernels::ForceIsa(std::nullopt);
      stage_rows.push_back({cube.name, Name(isa), best});
    }
  }

  std::printf("# §4.1 kernel steps, Query 1, warm, ns per cell (best of 3)\n");
  std::printf("stage,cube,isa,ns_per_cell,cells_per_chunk,outer_builds\n");
  for (const StageRow& row : stage_rows) {
    const std::pair<const char*, double> stages[] = {
        {"table_build", row.s.build},   {"unpack", row.s.unpack},
        {"decode", row.s.decode},       {"scatter", row.s.scatter},
        {"kernel", row.s.kernel}};
    const double cells_per_chunk = static_cast<double>(row.s.cells) /
                                   static_cast<double>(row.s.chunks);
    for (const auto& [stage, seconds] : stages) {
      const double ns = seconds * 1e9 / static_cast<double>(row.s.cells);
      std::printf("%s,%s,%s,%.3f,%.0f,%llu\n", stage, row.cube.c_str(),
                  row.isa.c_str(), ns, cells_per_chunk,
                  static_cast<unsigned long long>(row.s.outer_builds));
      ExecutionStats stats;
      stats.seconds = seconds;
      stats.kernel_isa = row.isa;
      report.Add({{"config", "stage"},
                  {"stage", stage},
                  {"cube", row.cube},
                  {"isa", row.isa}},
                 "kernel", 0, stats,
                 {{"ns_per_cell", ns},
                  {"cells_per_chunk", cells_per_chunk},
                  {"outer_builds", static_cast<double>(row.s.outer_builds)}});
    }
  }

  report.WriteFile();
  return 0;
}
