// Ablation: the incremental ingest path (DESIGN.md choice 15). Four
// measurements over one cube, then an overlay sweep over Data Set 1:
//
//   ingest      write/commit throughput (cells/s) across delta generations,
//               then one timed compaction merging them all;
//   quiesced    pinned-reader latency distribution with the writers idle —
//               the baseline p50/p99;
//   churn       the same pinned readers while a background thread commits
//               fresh generations and compacts continuously (interleaved
//               with matched over five rounds; the p99 ratio is the
//               median round's, printed with its min and max);
//   matched     the readers against a thread with the writer's measured
//               duty cycle (spin + sleep) doing NO database work — on a
//               small box the scheduler charges readers for any busy
//               neighbor, so this is the fair baseline. MVCC promise:
//               pinned readers run against their epoch untouched, so churn
//               p99 must stay within a few percent of matched p99 — any
//               excess is database-level interference (locks, version
//               churn), not timeslicing;
//   overlay     serial warm reader p50 on DataSet1(1000) with 0, 100, 400
//               and 800 committed-but-uncompacted delta cells: what the
//               scan kernel's base+delta merge costs per overlay cell.
//               Each level's answer must equal the answer after compacting
//               that overlay into a re-encoded base.
//
// Every reader result is compared against the pin-time answer of its own
// snapshot — the bench dies on the first divergence, so a passing churn run
// proves snapshot isolation, not just liveness (the quiesced pass is
// additionally checked against the live array's golden). Writes
// BENCH_ingest.json in the shared bench schema.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/random.h"
#include "core/consolidate.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "ingest/ingest.h"
#include "query/query.h"
#include "schema/database.h"

using namespace paradise;         // NOLINT(build/namespaces)
using namespace paradise::bench;  // NOLINT(build/namespaces)

namespace {

void Die(const Status& st) {
  std::fprintf(stderr, "abl_ingest: %s\n", st.ToString().c_str());
  std::exit(1);
}

gen::GenConfig IngestConfig() {
  gen::GenConfig config;
  config.dims.resize(3);
  const uint32_t sizes[3] = {24, 24, 30};
  for (size_t d = 0; d < 3; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = sizes[d];
    config.dims[d].level_cardinalities = {6, 3};
  }
  config.num_valid_cells = 8000;
  config.seed = 20260809;
  config.chunk_extents = {6, 6, 6};
  return config;
}

uint64_t Percentile(const std::vector<uint64_t>& sorted_micros, double p) {
  if (sorted_micros.empty()) return 0;
  const size_t idx = std::min(
      sorted_micros.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_micros.size())));
  return sorted_micros[idx];
}

struct LatencyPass {
  double p50_ms = 0;
  double p99_ms = 0;
  double seconds = 0;
  uint64_t queries = 0;
  std::vector<uint64_t> micros;  // per-query latencies, sorted
};

LatencyPass FromMicros(std::vector<uint64_t> micros, double seconds) {
  LatencyPass pass;
  std::sort(micros.begin(), micros.end());
  pass.p50_ms = static_cast<double>(Percentile(micros, 0.50)) / 1000.0;
  pass.p99_ms = static_cast<double>(Percentile(micros, 0.99)) / 1000.0;
  pass.seconds = seconds;
  pass.queries = micros.size();
  pass.micros = std::move(micros);
  return pass;
}

/// The passes' queries as one population.
LatencyPass Pooled(const std::vector<LatencyPass>& passes) {
  std::vector<uint64_t> micros;
  double seconds = 0;
  for (const LatencyPass& pass : passes) {
    micros.insert(micros.end(), pass.micros.begin(), pass.micros.end());
    seconds += pass.seconds;
  }
  return FromMicros(std::move(micros), seconds);
}

/// Runs `queries` serial consolidations against one pinned snapshot. The pin
/// is taken once up front, like a server session's connect-time pin, and the
/// pin-time answer becomes the reference every later query must reproduce —
/// under churn the pin may already include post-golden commits, so snapshot
/// isolation means stability against the pin, not against older state. When
/// `expect` is non-null (quiesced pass) the reference itself must also match
/// it.
LatencyPass RunPinnedReaders(const Database* db,
                             const query::ConsolidationQuery& q,
                             const query::GroupedResult* expect,
                             size_t queries) {
  const Database::PinnedArray pin = db->PinArray();
  Result<query::GroupedResult> ref_or = ArrayConsolidate(pin.array, q);
  if (!ref_or.ok()) Die(ref_or.status());
  const query::GroupedResult ref = std::move(ref_or).value();
  if (expect != nullptr && !ref.SameAs(*expect)) {
    Die(Status::Internal(
        "quiesced pin-time answer diverged from the live golden"));
  }
  std::vector<uint64_t> micros;
  micros.reserve(queries);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < queries; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<query::GroupedResult> r = ArrayConsolidate(pin.array, q);
    const auto t1 = std::chrono::steady_clock::now();
    if (!r.ok()) Die(r.status());
    if (!r->SameAs(ref)) {
      Die(Status::Internal("pinned reader diverged from its pin-time "
                           "reference at query " + std::to_string(i)));
    }
    micros.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
            .count()));
  }
  return FromMicros(
      std::move(micros),
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

/// The overlay sweep: one serial warm reader on DataSet1(1000, 10, seed 5)
/// stored under kAuto, running Query 1, measured with `level` delta cells
/// committed on a freshly compacted base, for each level. Half the upserts
/// overwrite stored cells, half insert new ones. Each level's answer is
/// checked against the answer after compacting its overlay, which
/// re-encodes the merged chunks.
void RunOverlaySweep(BenchReport* report) {
  BenchFile file("ingest_overlay");
  const gen::GenConfig config = gen::DataSet1(1000, 10, 5);
  Result<gen::SyntheticDataset> data_or = gen::Generate(config);
  if (!data_or.ok()) Die(data_or.status());
  const gen::SyntheticDataset data = std::move(data_or).value();
  // kAuto, like the benchmark's cubes: a chunk re-encode sizes every codec.
  DatabaseOptions options = PaperOptions();
  options.array.chunk_format = ChunkFormat::kAuto;
  Result<std::unique_ptr<Database>> db_or =
      BuildDatabaseFromDataset(file.path(), data, options);
  if (!db_or.ok()) Die(db_or.status());
  const std::unique_ptr<Database> db = std::move(db_or).value();
  const query::ConsolidationQuery q = gen::Query1(config.dims.size());
  uint64_t total_cells = 1;
  for (const gen::GenDimension& d : config.dims) total_cells *= d.size;

  constexpr size_t kSweepQueries = 100;
  Random rng(5);
  std::printf("overlay_cells,queries,p50_ms\n");
  for (const size_t level : {0, 100, 400, 800}) {
    for (size_t i = 0; i < level; ++i) {
      const uint64_t gi =
          i % 2 == 0 ? data.cell_global_indices[rng.Uniform(
                           data.cell_global_indices.size())]
                     : rng.Uniform(total_cells);
      if (Status st = db->ingest()->Write(data.CellKeys(gi),
                                          {static_cast<int64_t>(i)});
          !st.ok()) {
        Die(st);
      }
    }
    if (Status st = db->ingest()->Commit(); !st.ok()) Die(st);
    const uint64_t overlay_cells = db->ingest()->stats().overlay_cells;
    // Warm-up query; the pool then holds the whole array.
    Result<query::GroupedResult> first = ArrayConsolidate(*db->olap(), q);
    if (!first.ok()) Die(first.status());
    std::vector<uint64_t> micros;
    for (size_t i = 0; i < kSweepQueries; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      Result<query::GroupedResult> r = ArrayConsolidate(*db->olap(), q);
      const auto t1 = std::chrono::steady_clock::now();
      if (!r.ok()) Die(r.status());
      if (!r->SameAs(*first)) {
        Die(Status::Internal("overlay sweep answer changed between queries"));
      }
      micros.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()));
    }
    if (Status st = db->ingest()->Compact(); !st.ok()) Die(st);
    Result<query::GroupedResult> compacted = ArrayConsolidate(*db->olap(), q);
    if (!compacted.ok()) Die(compacted.status());
    if (!compacted->SameAs(*first)) {
      Die(Status::Internal("overlay answer at " + std::to_string(level) +
                           " delta cells differs from the compacted base's"));
    }
    std::sort(micros.begin(), micros.end());
    const double p50_ms = static_cast<double>(Percentile(micros, 0.50)) / 1000;
    std::printf("%llu,%zu,%.3f\n",
                static_cast<unsigned long long>(overlay_cells), kSweepQueries,
                p50_ms);
    ExecutionStats stats;
    stats.seconds = p50_ms / 1000;
    report->Add({{"mode", "overlay_sweep"},
                 {"overlay_cells", std::to_string(overlay_cells)}},
                "array", first->num_groups(), stats,
                {{"p50_ms", p50_ms},
                 {"overlay_cells", static_cast<double>(overlay_cells)},
                 {"queries", static_cast<double>(kSweepQueries)}});
  }
}

}  // namespace

int main() {
  std::printf("# abl_ingest — incremental ingest throughput and pinned-"
              "reader latency under compaction churn\n");

  BenchFile file("ingest");
  const gen::GenConfig config = IngestConfig();
  Result<gen::SyntheticDataset> data_or = gen::Generate(config);
  if (!data_or.ok()) Die(data_or.status());
  const gen::SyntheticDataset data = std::move(data_or).value();
  // Paper-faithful page size, but a pool large enough that the pinned
  // readers' working set survives the churn writer's allocations: the
  // measurement isolates the MVCC read path, not cache-capacity eviction
  // (abl_cache covers that axis).
  DatabaseOptions options = PaperOptions();
  options.storage.buffer_pool_pages = 8192;
  std::unique_ptr<Database> db = MustBuild(file.path(), config, options);
  if (db->ingest() == nullptr) Die(Status::Internal("no ingest manager"));

  BenchReport report(
      "ingest",
      "incremental ingest: write/commit/compact throughput, then pinned-"
      "reader p50/p99 quiesced vs under continuous commit+compaction churn; "
      "every reader reply compared against its snapshot's pin-time answer");

  const query::ConsolidationQuery q = gen::Query1(3);

  // --- Pass 1: ingest throughput. kGenerations batches of kBatch upserts,
  // each committed as its own delta generation, then one compaction.
  constexpr size_t kGenerations = 16;
  constexpr size_t kBatch = 512;
  size_t cursor = 0;
  double write_seconds = 0;
  double commit_seconds = 0;
  for (size_t g = 0; g < kGenerations; ++g) {
    const auto w0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t gi =
          data.cell_global_indices[cursor++ % data.cell_global_indices.size()];
      if (Status st = db->ingest()->Write(
              data.CellKeys(gi), {static_cast<int64_t>(1000 + g)});
          !st.ok()) {
        Die(st);
      }
    }
    const auto w1 = std::chrono::steady_clock::now();
    if (Status st = db->ingest()->Commit(); !st.ok()) Die(st);
    const auto w2 = std::chrono::steady_clock::now();
    write_seconds += std::chrono::duration<double>(w1 - w0).count();
    commit_seconds += std::chrono::duration<double>(w2 - w1).count();
  }
  const IngestManager::Stats pre_compact = db->ingest()->stats();
  const auto c0 = std::chrono::steady_clock::now();
  if (Status st = db->ingest()->Compact(); !st.ok()) Die(st);
  const double compact_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
          .count();

  const double cells = static_cast<double>(kGenerations * kBatch);
  std::printf("phase,cells,seconds,cells_per_sec\n");
  std::printf("write,%zu,%.4f,%.0f\n", kGenerations * kBatch, write_seconds,
              cells / write_seconds);
  std::printf("commit,%zu,%.4f,%.0f\n", kGenerations * kBatch, commit_seconds,
              cells / commit_seconds);
  std::printf("compact,%zu,%.4f,%.0f\n", kGenerations * kBatch,
              compact_seconds, cells / compact_seconds);
  {
    ExecutionStats stats;
    stats.seconds = write_seconds + commit_seconds + compact_seconds;
    report.Add({{"phase", "ingest"}}, "ingest", kGenerations * kBatch, stats,
               {{"write_cells_per_sec", cells / write_seconds},
                {"commit_cells_per_sec", cells / commit_seconds},
                {"compact_seconds", compact_seconds},
                {"generations", static_cast<double>(kGenerations)},
                {"overlay_cells_pre_compact",
                 static_cast<double>(pre_compact.overlay_cells)}});
  }

  // --- Pass 2: pinned-reader latency, quiesced baseline. The golden is the
  // live post-compaction answer; the quiesced pin must reproduce it exactly.
  Result<query::GroupedResult> golden_or = ArrayConsolidate(*db->olap(), q);
  if (!golden_or.ok()) Die(golden_or.status());
  const query::GroupedResult golden = std::move(golden_or).value();

  constexpr size_t kReaderQueries = 2000;
  const LatencyPass quiesced =
      RunPinnedReaders(db.get(), q, &golden, kReaderQueries);

  // --- Passes 3 and 4, interleaved over kRounds rounds so drift in the
  // machine's load hits both alike. Churn: the same readers while a writer
  // thread commits a fresh generation per round and compacts every fourth
  // round. Matched load: the writer's measured duty cycle (busy-spin the
  // mean round time, sleep the same 2 ms) replayed without any database
  // calls, under the same readers. The scheduler cost of a busy neighbor is
  // identical; only ingest's database-level interference is absent — so
  // churn/matched isolates what MVCC actually costs readers. One pass's p99
  // is its 20th-slowest query of about 0.2 ms, so the ratio is taken per
  // round and printed as the median with its range.
  constexpr int kRounds = 5;
  std::vector<double> round_ratios;
  std::vector<LatencyPass> churn_passes;
  std::vector<LatencyPass> matched_passes;
  uint64_t churn_commits = 0;
  uint64_t churn_compactions = 0;
  uint64_t write_round = 0;
  for (int r = 0; r < kRounds; ++r) {
    std::atomic<bool> done{false};
    uint64_t writer_busy_micros = 0;
    uint64_t writer_rounds = 0;
    std::thread writer([&] {
      size_t wcursor = 0;
      while (!done.load(std::memory_order_acquire)) {
        const auto r0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < kBatch; ++i) {
          const uint64_t gi =
              data.cell_global_indices[wcursor++ %
                                       data.cell_global_indices.size()];
          if (Status st = db->ingest()->Write(
                  data.CellKeys(gi), {static_cast<int64_t>(write_round)});
              !st.ok()) {
            Die(st);
          }
        }
        if (Status st = db->ingest()->Commit(); !st.ok()) Die(st);
        ++churn_commits;
        if (write_round % 4 == 3) {
          if (Status st = db->ingest()->Compact(); !st.ok()) Die(st);
          ++churn_compactions;
        }
        ++write_round;
        writer_busy_micros += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - r0)
                .count());
        ++writer_rounds;
        // Pace the rounds so "continuous" churn still leaves the readers
        // runnable on a single-CPU box; dozens of commits and compactions
        // land inside the reader window regardless.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    // No `expect`: the pin lands mid-churn, at whatever epoch is current —
    // the isolation claim is that its answer never changes from there on.
    churn_passes.push_back(
        RunPinnedReaders(db.get(), q, nullptr, kReaderQueries));
    done.store(true, std::memory_order_release);
    writer.join();

    const std::chrono::microseconds spin(
        writer_busy_micros / std::max<uint64_t>(1, writer_rounds));
    std::atomic<bool> matched_done{false};
    std::thread dummy([&] {
      while (!matched_done.load(std::memory_order_acquire)) {
        const auto until = std::chrono::steady_clock::now() + spin;
        while (std::chrono::steady_clock::now() < until) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    matched_passes.push_back(
        RunPinnedReaders(db.get(), q, nullptr, kReaderQueries));
    matched_done.store(true, std::memory_order_release);
    dummy.join();
    round_ratios.push_back(matched_passes.back().p99_ms > 0
                               ? churn_passes.back().p99_ms /
                                     matched_passes.back().p99_ms
                               : 0);
  }
  const LatencyPass churn = Pooled(churn_passes);
  const LatencyPass matched = Pooled(matched_passes);
  std::sort(round_ratios.begin(), round_ratios.end());
  const double ratio_matched = round_ratios[kRounds / 2];

  const double ratio_quiesced =
      quiesced.p99_ms > 0 ? churn.p99_ms / quiesced.p99_ms : 0;
  std::printf("mode,queries,seconds,p50_ms,p99_ms,commits,compactions\n");
  std::printf("quiesced,%llu,%.3f,%.3f,%.3f,0,0\n",
              static_cast<unsigned long long>(quiesced.queries),
              quiesced.seconds, quiesced.p50_ms, quiesced.p99_ms);
  std::printf("matched,%llu,%.3f,%.3f,%.3f,0,0\n",
              static_cast<unsigned long long>(matched.queries),
              matched.seconds, matched.p50_ms, matched.p99_ms);
  std::printf("churn,%llu,%.3f,%.3f,%.3f,%llu,%llu\n",
              static_cast<unsigned long long>(churn.queries), churn.seconds,
              churn.p50_ms, churn.p99_ms,
              static_cast<unsigned long long>(churn_commits),
              static_cast<unsigned long long>(churn_compactions));
  std::printf("# churn/quiesced p99 ratio: %.3f (all rounds pooled; "
              "scheduler included)\n",
              ratio_quiesced);
  std::printf("# churn/matched-load p99 ratio: median %.3f over %d rounds "
              "(min %.3f, max %.3f; target < 1.10; matched = equal CPU duty "
              "cycle, no database)\n",
              ratio_matched, kRounds, round_ratios.front(),
              round_ratios.back());

  const LatencyPass* passes[] = {&quiesced, &matched, &churn};
  const char* names[] = {"quiesced", "matched", "churn"};
  for (size_t i = 0; i < 3; ++i) {
    const LatencyPass& pass = *passes[i];
    const bool is_churn = i == 2;
    ExecutionStats stats;
    stats.seconds = pass.seconds;
    report.Add({{"mode", names[i]}}, "array", golden.num_groups(), stats,
               {{"p50_ms", pass.p50_ms},
                {"p99_ms", pass.p99_ms},
                {"queries", static_cast<double>(pass.queries)},
                {"p99_ratio_vs_quiesced", is_churn ? ratio_quiesced : 1.0},
                {"p99_ratio_vs_matched", is_churn ? ratio_matched : 1.0},
                {"p99_ratio_vs_matched_min",
                 is_churn ? round_ratios.front() : 1.0},
                {"p99_ratio_vs_matched_max",
                 is_churn ? round_ratios.back() : 1.0},
                {"rounds", i == 0 ? 1.0 : static_cast<double>(kRounds)},
                {"commits", static_cast<double>(
                     is_churn ? churn_commits : 0)},
                {"compactions", static_cast<double>(
                     is_churn ? churn_compactions : 0)}});
  }

  // --- Pass 5: reader cost per overlay cell.
  RunOverlaySweep(&report);
  report.WriteFile();
  return 0;
}
