// cold_scan: the paper's cold-buffer protocol (§5).
//
// One caller in a closed loop, threads=1, runs a seeded stream of
// Query-1-family full consolidations (each dimension grouped by hX1, by hX2
// or collapsed), alternating between two cubes with the same 640 000 valid
// cells: DataSet1(1000) — 1% dense, 800 chunks — and DataSet1(50) — 20%
// dense, 40 chunks. The buffer pool is dropped before every query and the
// result cache is off, so storage reads, chunk decode and the kernel
// scatter do almost all the work. kAuto picks different codecs for the two
// densities.
//
// Latency is reported per cube and then averaged over the two cubes, so each
// percentile sits inside one cube's cost class instead of on the boundary
// between them.
//
// The traced run rotates the stream through three executions: untraced
// (the reference for the tracing overhead), traced at threads=1 followed by
// a replay of the same scan through the layers' public functions (the
// storage/array/core split and its coverage of the wall time), and traced
// at threads=2, the only path that runs ChunkReadAhead, IoPool and
// MorselPool (prefetch, morsel and steal counts, worker busy fraction).
#include <cstdio>
#include <string>
#include <vector>

#include "array/chunk.h"
#include "common/metrics.h"
#include "core/aggregate.h"
#include "core/kernels/consolidate_kernel.h"
#include "gen/datasets.h"
#include "query/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace paradise;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kParallelThreads = 2;  // 2 workers + 2 io_pool threads

// Per-cube tallies of the measured stream.
struct CubeTally {
  std::vector<Span> latency;
  std::vector<double> modeled_ms;
  // Exact-repeat check: every full scan of a cube at threads=1 reads the
  // same pages and chunks, whatever it groups by.
  bool have_reads = false;
  uint64_t seq_reads = 0;
  uint64_t rand_reads = 0;
  uint64_t chunks_read = 0;
};

// Counters of the traced executions at one thread count.
struct TracedTally {
  uint64_t queries = 0;
  double drop_s = 0;
  double wall_s = 0;  // RunQuery with the pool already dropped
  double cpu_s = 0;   // process CPU over the same calls
  uint64_t disk_reads = 0, rand_reads = 0, logical_reads = 0, hits = 0;
  uint64_t evictions = 0, prefetched = 0, prefetch_hits = 0;
  uint64_t chunks_read = 0, morsel_splits = 0, morsel_steals = 0;
  double modeled_ms = 0;  // IoModel1997 over the seq/rand page reads
  std::vector<double> ms;  // drop + RunQuery, as the untraced stream times it
};

// The serial scan replayed through the layers' public functions.
struct ReplayTally {
  double read_s = 0;     // ChunkedArray::ReadChunkBlob
  uint64_t read_pages = 0;
  double view_s = 0;     // ChunkView::Make
  double scatter_s = 0;  // KernelTables::Build + kernels::AggregateView
  double emit_s = 0;     // FlatToGroupedResult
  double decode_s = 0;   // ChunkView::Make + a decode-only pass over the view
  uint64_t cells = 0;
};

uint64_t CounterValue(const char* name) {
  const Counter* c = MetricsRegistry::Default().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

// Replays one full consolidation through the storage, array and core layers'
// public functions, timing each call. Returns the replayed answer so the
// replay is checked like every other answer.
query::GroupedResult Replay(Database* db, const query::ConsolidationQuery& q,
                            ReplayTally* t) {
  Check(db->DropCaches(), "DropCaches");
  const Database::PinnedArray pin = db->PinArray();
  const OlapArray& olap = pin.array;
  const ChunkedArray& array = olap.array(0);
  const GroupSpec spec = Must(GroupSpec::Make(olap, q), "GroupSpec");
  std::vector<query::AggState> flat(spec.num_groups);
  kernels::KernelTables tables;
  const uint64_t reads_before = db->storage()->pool()->stats().disk_reads;
  for (uint64_t c = 0; c < array.layout().num_chunks(); ++c) {
    if (array.ChunkIsEmpty(c)) continue;
    const double t0 = Now();
    const std::string blob = Must(array.ReadChunkBlob(c), "ReadChunkBlob");
    const double t1 = Now();
    const ChunkView view = Must(ChunkView::Make(blob), "ChunkView::Make");
    const double t2 = Now();
    tables.Build(olap, spec, c);
    const uint64_t cells = kernels::AggregateView(view, tables, flat.data());
    const double t3 = Now();
    // The decode the kernel does, without the scatter: ChunkView::Make, then
    // every cell off the stored bytes (packed codecs through DecodeBlock, the
    // kernel's unpack step).
    const ChunkView decoded = Must(ChunkView::Make(blob), "ChunkView::Make");
    uint64_t seen = 0;
    decoded.ForEach([&](uint32_t, int64_t) { ++seen; });
    const double t4 = Now();
    if (seen != cells || cells != view.num_valid()) Die("decode count mismatch");
    t->cells += cells;
    t->read_s += t1 - t0;
    t->view_s += t2 - t1;
    t->scatter_s += t3 - t2;
    t->decode_s += t4 - t3;
  }
  t->read_pages += db->storage()->pool()->stats().disk_reads - reads_before;
  const double t0 = Now();
  query::GroupedResult result =
      FlatToGroupedResult(spec, flat, spec.GroupColumnNames(olap));
  t->emit_s += Now() - t0;
  return result;
}

// Drops the pool (timed), then runs `q` traced with `threads` workers.
Result<Execution> RunTraced(Database* db, const query::ConsolidationQuery& q,
                            size_t threads, TracedTally* t) {
  RunQueryOptions options;
  options.cold = false;  // dropped here, so the drop is timed apart
  options.trace = true;
  options.num_threads = threads;
  const uint64_t splits0 = CounterValue("morsel.splits");
  const uint64_t steals0 = CounterValue("morsel.steals");
  const double t0 = Now();
  Check(db->DropCaches(), "DropCaches");
  const double t1 = Now();
  const double cpu0 = ProcessCpuSeconds();
  Result<Execution> exec = RunQuery(db, EngineKind::kArray, q, options);
  const double t2 = Now();
  t->cpu_s += ProcessCpuSeconds() - cpu0;
  t->drop_s += t1 - t0;
  t->wall_s += t2 - t1;
  t->ms.push_back((t2 - t0) * 1e3);
  t->morsel_splits += CounterValue("morsel.splits") - splits0;
  t->morsel_steals += CounterValue("morsel.steals") - steals0;
  if (exec.ok()) {
    const BufferPoolStats& io = exec->stats.io;
    ++t->queries;
    t->disk_reads += io.disk_reads;
    t->rand_reads += io.rand_disk_reads;
    t->logical_reads += io.logical_reads;
    t->hits += io.hits;
    t->evictions += io.evictions;
    t->prefetched += io.prefetched;
    t->prefetch_hits += io.prefetch_hits;
    t->chunks_read += exec->stats.aux;
    t->modeled_ms += exec->stats.ModeledSeconds() * 1e3;
  }
  return exec;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace

void RunColdScan(const Args& args, Report* out) {
  Report& report = *out;
  SpeedProbe speed;
  std::vector<Cube> cubes(2);
  cubes[0].name = "d1000";
  cubes[0].config = gen::DataSet1(1000, 5, args.seed);
  cubes[1].name = "d50";
  cubes[1].config = gen::DataSet1(50, 5, args.seed + 1);
  const SetupTimes setup = BuildCubes(args, &speed, &cubes,
                                      BenchOptions(args.trace),
                                      args.trace ? 1 : 3, args.trace);
  std::vector<Oracle> oracles;
  for (Cube& cube : cubes) oracles.push_back(Oracle::FromStarJoin(cube.db.get()));

  Random rng(args.seed * 0x9E3779B97F4A7C15ULL + 1);
  RunQueryOptions cold;
  cold.cold = true;

  // Warm-up: lazy set-up and the OS page cache, outside the measurement.
  for (int i = 0; i < 4; ++i) {
    Cube& cube = cubes[static_cast<size_t>(i) % 2];
    Must(RunQuery(cube.db.get(), EngineKind::kArray, gen::Query1(4), cold),
         "warm-up query");
  }

  std::vector<CubeTally> tally(cubes.size());
  std::vector<double> untraced_ms;
  TracedTally serial, parallel;
  ReplayTally replay;
  const double start = Now();
  const double end = start + args.seconds;
  for (uint64_t i = 0; Now() < end; ++i) {
    const size_t ci = i % cubes.size();
    Cube& cube = cubes[ci];
    Database* db = cube.db.get();
    const query::ConsolidationQuery q = RandomRollup(&rng);
    // Untraced runs time the stream; the traced run rotates modes per cube
    // pair so both cubes see every mode.
    const uint64_t mode = args.trace ? (i / cubes.size()) % 3 : 0;
    report.Attempt();
    Result<Execution> exec = Status::OK();
    if (mode == 0) {
      speed.Probe();
      const double t0 = Now();
      exec = RunQuery(db, EngineKind::kArray, q, cold);
      const double t1 = Now();
      if (args.trace) {
        untraced_ms.push_back((t1 - t0) * 1e3);
      } else {
        tally[ci].latency.push_back(Span{t0, t1});
      }
    } else if (mode == 1) {
      exec = RunTraced(db, q, 1, &serial);
      if (exec.ok() && !oracles[ci].Matches(q, Replay(db, q, &replay))) {
        report.Fail("layer replay answer differs from the oracle");
      }
    } else {
      exec = RunTraced(db, q, kParallelThreads, &parallel);
    }
    if (!exec.ok()) {
      report.Failed();
      report.Fail("query failed: " + exec.status().ToString());
      continue;
    }
    if (!oracles[ci].Matches(q, std::move(exec->result))) {
      report.Failed();
      report.Fail("wrong answer on " + cube.name + " for " + Shape(q));
      continue;
    }
    // Counts are checked on the untraced stream only: the traced run mixes
    // in threads=2 scans, whose last page moves the simulated disk head and
    // so the seq/rand split of the next serial scan.
    if (args.trace) continue;
    CubeTally& t = tally[ci];
    const BufferPoolStats& io = exec->stats.io;
    t.modeled_ms.push_back(exec->stats.ModeledSeconds() * 1e3);
    if (!t.have_reads) {
      t.have_reads = true;
      t.seq_reads = io.seq_disk_reads;
      t.rand_reads = io.rand_disk_reads;
      t.chunks_read = exec->stats.aux;
    } else if (io.seq_disk_reads != t.seq_reads ||
               io.rand_disk_reads != t.rand_reads ||
               exec->stats.aux != t.chunks_read) {
      report.Fail("count drift on " + cube.name + ": " +
                  std::to_string(io.seq_disk_reads) + "/" +
                  std::to_string(io.rand_disk_reads) + " seq/rand reads and " +
                  std::to_string(exec->stats.aux) + " chunks, the first query " +
                  std::to_string(t.seq_reads) + "/" +
                  std::to_string(t.rand_reads) + " and " +
                  std::to_string(t.chunks_read));
    }
  }
  const double elapsed = Now() - start;

  std::vector<Cube*> cube_ptrs;
  std::vector<uint64_t> cells;
  for (Cube& cube : cubes) {
    cube_ptrs.push_back(&cube);
    cells.push_back(cube.config.num_valid_cells);
  }
  const Footprint fp = MeasureFootprint(cube_ptrs, cells);
  const double ncubes = static_cast<double>(cubes.size());
  double p50 = 0, p90 = 0, modeled = 0;
  for (size_t c = 0; c < cubes.size() && !args.trace; ++c) {
    const CubeTally& t = tally[c];
    const std::vector<double> ms = NormalizedMs(speed, t.latency);
    const std::vector<double> raw = RawMs(t.latency);
    p50 += Percentile(ms, 0.5) / ncubes;
    p90 += Percentile(ms, 0.9) / ncubes;
    modeled += Mean(t.modeled_ms) / ncubes;
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s: %zu timed samples, p50 %.3f ms, p90 %.3f ms (raw %.3f, "
                  "%.3f); every query %llu seq + %llu rand page reads, %llu "
                  "chunks, modeled io %.3f ms",
                  cubes[c].name.c_str(), ms.size(), Percentile(ms, 0.5),
                  Percentile(ms, 0.9), Percentile(raw, 0.5),
                  Percentile(raw, 0.9),
                  static_cast<unsigned long long>(t.seq_reads),
                  static_cast<unsigned long long>(t.rand_reads),
                  static_cast<unsigned long long>(t.chunks_read),
                  Mean(t.modeled_ms));
    report.Note(line);
  }
  report.Note("counts (must repeat exactly for a seed): " +
              (args.trace ? std::string()
                          : "modeled_io_ms=" + std::to_string(modeled) + " ") +
              "bytes_per_cell=" + std::to_string(fp.file_bytes_per_cell) +
              " array.bytes_per_cell=" + std::to_string(fp.array_bytes_per_cell));
  std::vector<std::vector<Span>> caller(1);
  for (const CubeTally& t : tally) {
    caller[0].insert(caller[0].end(), t.latency.begin(), t.latency.end());
  }
  report.Note("cpu slowdown " + std::to_string(speed.Slowdown(start, start + elapsed)) +
              " (median over the measurement); " +
              (args.trace ? std::string()
                          : "raw qps " + std::to_string(ClosedLoopQps(nullptr, caller)) +
                                ", share of the loop inside RunQuery " +
                                std::to_string(BusyShare(caller, elapsed)) + "; ") +
              setup.RawSummary());
  report.Note(
      "shares: cache_hit=0 cache_derived=0 (cache off) plan_4.1=1 plan_4.2=0 "
      "bitmap=0 overlay=0");
  report.Note("error_rate=" + std::to_string(Ratio(
                                  static_cast<double>(report.failed()),
                                  static_cast<double>(report.attempted()))));

  if (!args.trace) {
    report.Metric("setup_s", setup.setup_s, "s");
    report.Metric("p50_ms", p50, "ms");
    report.Metric("p90_ms", p90, "ms");
    report.Metric("qps", ClosedLoopQps(&speed, caller), "1/s");
    report.Metric("bytes_per_cell", fp.file_bytes_per_cell, "B");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const double nq = static_cast<double>(std::max<uint64_t>(1, serial.queries));
  const double np = static_cast<double>(std::max<uint64_t>(1, parallel.queries));
  ReportSetupLayers(setup, &report);
  report.Metric("storage.disk_reads_per_query", serial.disk_reads / nq, "count");
  report.Metric("storage.rand_read_frac",
                Ratio(static_cast<double>(serial.rand_reads),
                      static_cast<double>(serial.disk_reads)),
                "ratio");
  report.Metric("storage.read_us_per_page",
                Ratio(replay.read_s * 1e6, static_cast<double>(replay.read_pages)),
                "us");
  report.Metric("storage.drop_ms", serial.drop_s * 1e3 / nq, "ms");
  report.Metric("storage.modeled_io_ms", serial.modeled_ms / nq, "ms");
  report.Metric("storage.pool_hit_rate",
                Ratio(static_cast<double>(serial.hits),
                      static_cast<double>(serial.logical_reads)),
                "ratio");
  report.Metric("storage.evictions_per_query", serial.evictions / nq, "count");
  report.Metric("storage.prefetch_hit_rate",
                Ratio(static_cast<double>(parallel.prefetch_hits),
                      static_cast<double>(parallel.prefetched)),
                "ratio");
  report.Metric("array.bytes_per_cell", fp.array_bytes_per_cell, "B");
  report.Metric("array.chunks_read_per_query", serial.chunks_read / nq, "count");
  report.Metric("array.decode_ns_per_cell",
                Ratio(replay.decode_s * 1e9, static_cast<double>(replay.cells)),
                "ns");
  report.Metric("core.scatter_ns_per_cell",
                Ratio(replay.scatter_s * 1e9, static_cast<double>(replay.cells)),
                "ns");
  report.Metric("core.morsels_per_query",
                (parallel.chunks_read + parallel.morsel_splits) / np, "count");
  report.Metric("core.steals_per_query", parallel.morsel_steals / np, "count");
  report.Metric("core.worker_busy_frac",
                Ratio(parallel.cpu_s,
                      static_cast<double>(kParallelThreads) * parallel.wall_s),
                "ratio");
  const double covered =
      replay.read_s + replay.view_s + replay.scatter_s + replay.emit_s;
  report.Metric("bench.coverage", Ratio(covered, serial.wall_s), "ratio");
  report.Note("coverage at threads=1 (ms/query): storage " +
              std::to_string(replay.read_s * 1e3 / nq) + " + array " +
              std::to_string(replay.view_s * 1e3 / nq) + " + core " +
              std::to_string((replay.scatter_s + replay.emit_s) * 1e3 / nq) +
              " of " + std::to_string(serial.wall_s * 1e3 / nq) +
              " RunQuery wall; threads=2 p50 " +
              std::to_string(Percentile(parallel.ms, 0.5)) + " ms");
  report.Metric("bench.cpu_slowdown", speed.Slowdown(start, start + elapsed),
                "ratio");
  report.Metric("bench.trace_overhead",
                Ratio(Median(serial.ms), Median(untraced_ms)), "ratio");
}

}  // namespace perfbench
