// ingest_mixed: incremental ingest beside warm readers.
//
// One writer runs an open loop over DataSet1(1000) (hX2 cardinality 10): a
// batch of kBatchCells IngestManager::Write calls plus Commit is due every
// kCommitPeriod, and every kCompactEvery-th commit is followed by Compact.
// Commit latency is timed from when the batch was due, so a compaction that
// delays the next batch shows as latency; how late each batch started is
// reported too. The flush policy is the repository's: every Commit and
// every Compact ends in a durable checkpoint (fsync).
//
// Beside it, two readers run serial warm Query-1-family consolidations
// with the result cache off, closed loop. Every write goes to a cell that
// held no value, so the expected answer at any epoch is the pre-ingest star
// join answer plus the writes of the commits that epoch includes; each
// reader answer must equal the expected answer of some commit between the
// query's start and end.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "ingest/ingest.h"
#include "query/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace paradise;  // NOLINT(build/namespaces)

namespace {

constexpr double kCommitPeriod = 0.05;  // seconds between due batches
constexpr size_t kBatchCells = 100;
constexpr uint64_t kCompactEvery = 8;
constexpr size_t kReaders = 2;

struct Write {
  std::vector<int32_t> keys;
  int64_t value;
};

// Expected-answer state after each commit, shared with the readers. The
// writer publishes commit i's state before calling Commit, so a reader that
// saw `committed` = c before its query and `published` = p after it knows
// its answer is the state of some commit in [c, p].
class CommitLog {
 public:
  using State = std::shared_ptr<const Oracle::Finest>;

  explicit CommitLog(State base) { states_.push_back(base); }

  void Publish(State next) {
    std::lock_guard<std::mutex> lock(mu_);
    states_.push_back(std::move(next));
    ++published_;
    // Readers need only the states since their query started; queries take
    // milliseconds and commits come every kCommitPeriod.
    while (states_.size() > 64) {
      states_.pop_front();
      ++first_;
    }
  }
  void MarkCommitted() { committed_.fetch_add(1); }
  uint64_t committed() const { return committed_.load(); }

  // States of commits [from, published], or empty when `from` was trimmed.
  std::vector<State> Since(uint64_t from) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<State> out;
    if (from < first_) return out;
    for (uint64_t i = from; i <= published_; ++i) out.push_back(states_[i - first_]);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::deque<State> states_;
  uint64_t first_ = 0;      // commit index of states_.front()
  uint64_t published_ = 0;  // commit index of states_.back()
  std::atomic<uint64_t> committed_{0};
};

struct WriterTally {
  std::vector<double> commit_ms, late_ms, compact_ms, live_generations;
  double write_s = 0;
  uint64_t cells = 0, commits = 0, compactions = 0;
  uint64_t pages_written = 0, syncs = 0, sync_micros = 0;
};

struct ReaderTally {
  std::vector<Span> latency;
  std::vector<double> modeled_ms, during_ms, outside_ms;
  std::vector<double> overlay_cells;
  uint64_t overlay_queries = 0;
  uint64_t logical_reads = 0, hits = 0, disk_reads = 0, evictions = 0;
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
};

// Picks `n` distinct cells that hold no value in `data`, with values.
std::vector<Write> PlanWrites(const gen::SyntheticDataset& data, size_t n,
                              Random* rng) {
  const uint64_t total = data.config.TotalCells();
  std::unordered_set<uint64_t> taken;
  std::vector<Write> writes;
  while (writes.size() < n) {
    const uint64_t g = rng->Uniform(total);
    if (std::binary_search(data.cell_global_indices.begin(),
                           data.cell_global_indices.end(), g) ||
        !taken.insert(g).second) {
      continue;
    }
    writes.push_back(Write{data.CellKeys(g), rng->UniformRange(1, 100)});
  }
  return writes;
}

}  // namespace

void ReportSetupLayers(const SetupTimes& setup, Report* report) {
  report->Metric("schema.load_s", setup.load_s, "s");
  report->Metric("schema.finish_load_s", setup.finish_load_s, "s");
}

void RunIngestMixed(const Args& args, Report* out) {
  Report& report = *out;
  SpeedProbe speed;
  std::vector<Cube> cubes(1);
  cubes[0].name = "ingest";
  cubes[0].config = gen::DataSet1(1000, 10, args.seed);
  DatabaseOptions options = BenchOptions(args.trace);
  options.build_bitmap_indexes = false;  // the readers never use them
  const SetupTimes setup =
      BuildCubes(args, &speed, &cubes, options, args.trace ? 1 : 5, args.trace);
  Database* db = cubes[0].db.get();
  IngestManager* ingest = db->ingest();
  if (ingest == nullptr) Die("the database has no ingest manager");
  // The star join runs before the first commit gates the relational engines.
  const Oracle oracle = Oracle::FromStarJoin(db);

  const gen::SyntheticDataset data =
      Must(gen::Generate(cubes[0].config), "generating the write plan");
  const size_t batches = static_cast<size_t>(args.seconds / kCommitPeriod) + 2;
  Random write_rng(args.seed * 31 + 7);
  const std::vector<Write> writes =
      PlanWrites(data, batches * kBatchCells, &write_rng);

  CommitLog log(std::make_shared<const Oracle::Finest>(oracle.finest()));
  std::atomic<uint64_t> compaction_seq{0};  // odd while compacting
  std::atomic<uint64_t> overlay_cells{0};

  // Warm-up: the readers' first queries fault the array into the pool.
  {
    RunQueryOptions warm;
    warm.cold = false;
    Must(RunQuery(db, EngineKind::kArray,
                  query::ConsolidationQuery::GroupByAll(4, 1), warm),
         "warm-up");
  }

  WriterTally wt;
  std::vector<ReaderTally> readers(kReaders);
  const double start = Now();
  const double end = start + args.seconds;

  std::thread writer([&] {
    auto state = std::make_shared<Oracle::Finest>(oracle.finest());
    size_t next_write = 0;
    for (uint64_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) * kCommitPeriod;
      if (due >= end || next_write + kBatchCells > writes.size()) break;
      while (Now() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const double begin = Now();
      wt.late_ms.push_back((begin - due) * 1e3);
      auto next = std::make_shared<Oracle::Finest>(*state);
      for (size_t i = 0; i < kBatchCells; ++i) {
        const Write& w = writes[next_write++];
        const double w0 = Now();
        Check(ingest->Write(w.keys, {w.value}), "IngestManager::Write");
        wt.write_s += Now() - w0;
        oracle.AddCell(w.keys, w.value, next.get());
      }
      wt.cells += kBatchCells;
      log.Publish(next);
      state = next;
      const uint64_t writes_before = db->storage()->pool()->stats().disk_writes;
      const Histogram* sync =
          MetricsRegistry::Default().FindHistogram("disk.sync_micros");
      const uint64_t syncs_before = sync == nullptr ? 0 : sync->count();
      const uint64_t sync_us_before = sync == nullptr ? 0 : sync->sum();
      Check(ingest->Commit(), "IngestManager::Commit");
      wt.commit_ms.push_back((Now() - due) * 1e3);
      log.MarkCommitted();
      wt.pages_written += db->storage()->pool()->stats().disk_writes - writes_before;
      if (sync != nullptr) {
        wt.syncs += sync->count() - syncs_before;
        wt.sync_micros += sync->sum() - sync_us_before;
      }
      ++wt.commits;
      IngestManager::Stats stats = ingest->stats();
      wt.live_generations.push_back(static_cast<double>(stats.live_generations));
      overlay_cells.store(stats.overlay_cells);
      if (wt.commits % kCompactEvery == 0) {
        compaction_seq.fetch_add(1);
        const double c0 = Now();
        Check(ingest->Compact(), "IngestManager::Compact");
        wt.compact_ms.push_back((Now() - c0) * 1e3);
        compaction_seq.fetch_add(1);
        ++wt.compactions;
        overlay_cells.store(ingest->stats().overlay_cells);
      }
    }
  });

  std::vector<std::thread> reader_threads;
  for (size_t r = 0; r < kReaders; ++r) {
    reader_threads.emplace_back([&, r] {
      ReaderTally& t = readers[r];
      Random rng(args.seed * 977 + r * 131 + 5);
      RunQueryOptions warm;
      warm.cold = false;
      while (Now() < end) {
        const query::ConsolidationQuery q = RandomRollup(&rng);
        const uint64_t from = log.committed();
        const uint64_t seq0 = compaction_seq.load();
        const uint64_t overlay = overlay_cells.load();
        ++t.attempted;
        speed.Probe();
        const double t0 = Now();
        Result<Execution> exec = RunQuery(db, EngineKind::kArray, q, warm);
        const double t1 = Now();
        const double ms = (t1 - t0) * 1e3;
        const uint64_t seq1 = compaction_seq.load();
        if (!exec.ok()) {
          ++t.failed;
          t.failures.push_back("reader query failed: " + exec.status().ToString());
          continue;
        }
        exec->result.SortCanonical();
        bool matched = false;
        for (const CommitLog::State& s : log.Since(from)) {
          if (exec->result.SameAs(oracle.Expect(q, s.get()))) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          ++t.failed;
          t.failures.push_back("reader answer matches no commit since " +
                               std::to_string(from) + " for " + Shape(q));
          continue;
        }
        t.latency.push_back(Span{t0, t1});
        t.modeled_ms.push_back(exec->stats.ModeledSeconds() * 1e3);
        (seq0 % 2 == 1 || seq1 != seq0 ? t.during_ms : t.outside_ms).push_back(ms);
        t.overlay_cells.push_back(static_cast<double>(overlay));
        t.overlay_queries += overlay > 0;
        const BufferPoolStats& io = exec->stats.io;
        t.logical_reads += io.logical_reads;
        t.hits += io.hits;
        t.disk_reads += io.disk_reads;
        t.evictions += io.evictions;
      }
    });
  }
  for (std::thread& t : reader_threads) t.join();
  writer.join();
  const double elapsed = Now() - start;

  // Final checkpoint: fold every generation in and free the graveyard before
  // measuring the file.
  Check(ingest->Compact(), "final Compact");
  Check(ingest->ReclaimRetired(), "ReclaimRetired");
  const Footprint fp =
      MeasureFootprint({&cubes[0]}, {cubes[0].config.num_valid_cells + wt.cells});
  // The merged array must still give the expected answers.
  {
    RunQueryOptions warm;
    warm.cold = false;
    const query::ConsolidationQuery q = query::ConsolidationQuery::GroupByAll(4, 1);
    Execution exec = Must(RunQuery(db, EngineKind::kArray, q, warm), "final query");
    const std::vector<CommitLog::State> last = log.Since(log.committed());
    report.Attempt();
    if (last.empty() || !oracle.Matches(q, std::move(exec.result), last.back().get())) {
      report.Failed();
      report.Fail("the compacted array lost or changed a write");
    }
  }

  std::vector<Span> spans;
  std::vector<std::vector<Span>> callers;
  std::vector<double> modeled, during, outside, overlay;
  uint64_t overlay_queries = 0, logical = 0, hits = 0, disk_reads = 0, evictions = 0;
  for (ReaderTally& t : readers) {
    report.Attempt(t.attempted);
    report.Failed(t.failed);
    for (const std::string& f : t.failures) report.Fail(f);
    spans.insert(spans.end(), t.latency.begin(), t.latency.end());
    callers.push_back(t.latency);
    modeled.insert(modeled.end(), t.modeled_ms.begin(), t.modeled_ms.end());
    during.insert(during.end(), t.during_ms.begin(), t.during_ms.end());
    outside.insert(outside.end(), t.outside_ms.begin(), t.outside_ms.end());
    overlay.insert(overlay.end(), t.overlay_cells.begin(), t.overlay_cells.end());
    overlay_queries += t.overlay_queries;
    logical += t.logical_reads;
    hits += t.hits;
    disk_reads += t.disk_reads;
    evictions += t.evictions;
  }
  if (spans.empty()) {
    report.Fail("no reader query completed");
    return;
  }
  const std::vector<double> latency = NormalizedMs(speed, spans);
  const std::vector<double> raw = RawMs(spans);
  const double slowdown = speed.Slowdown(start, start + elapsed);
  const double n = static_cast<double>(latency.size());
  char line[512];
  std::snprintf(line, sizeof(line),
                "readers: %zu samples, p50 %.3f ms, p90 %.3f ms (raw %.3f, "
                "%.3f; raw p90 %.3f ms in %zu queries during compaction, %.3f "
                "ms in %zu outside); cpu slowdown %.4f; raw qps %.3f, share "
                "of the loop inside RunQuery %.4f; %s",
                latency.size(), Percentile(latency, 0.5), Percentile(latency, 0.9),
                Percentile(raw, 0.5), Percentile(raw, 0.9),
                Percentile(during, 0.9), during.size(), Percentile(outside, 0.9),
                outside.size(), slowdown, ClosedLoopQps(nullptr, callers),
                BusyShare(callers, elapsed), setup.RawSummary().c_str());
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "writer: %llu commits of %zu cells every %.0f ms, %llu "
                "compactions (every %llu commits, mean %.1f ms); commit_p50_ms "
                "%.3f commit_p90_ms %.3f (%zu samples, from when due); fsync on "
                "every commit and compaction",
                static_cast<unsigned long long>(wt.commits), kBatchCells,
                kCommitPeriod * 1e3,
                static_cast<unsigned long long>(wt.compactions),
                static_cast<unsigned long long>(kCompactEvery), Mean(wt.compact_ms),
                Percentile(wt.commit_ms, 0.5), Percentile(wt.commit_ms, 0.9),
                wt.commit_ms.size());
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "writer lateness: mean %.3f ms, p90 %.3f ms, max %.3f ms behind "
                "schedule",
                Mean(wt.late_ms), Percentile(wt.late_ms, 0.9),
                Percentile(wt.late_ms, 1.0));
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "shares: cache_hit=0 cache_derived=0 (cache off) plan_4.1=1 "
                "plan_4.2=0 bitmap=0 overlay=%.4f",
                static_cast<double>(overlay_queries) / n);
  report.Note(line);
  report.Note("modeled io " + std::to_string(Mean(modeled)) +
              " ms/query; error_rate=" +
              std::to_string(static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted())));

  if (!args.trace) {
    report.Metric("setup_s", setup.setup_s, "s");
    report.Metric("p50_ms", Percentile(latency, 0.5), "ms");
    report.Metric("p90_ms", Percentile(latency, 0.9), "ms");
    report.Metric("qps", ClosedLoopQps(&speed, callers), "1/s");
    report.Metric("bytes_per_cell", fp.file_bytes_per_cell, "B");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const double commits = static_cast<double>(std::max<uint64_t>(1, wt.commits));
  ReportSetupLayers(setup, &report);
  report.Metric("bench.cpu_slowdown", slowdown, "ratio");
  report.Metric("storage.disk_reads_per_query", static_cast<double>(disk_reads) / n,
                "count");
  report.Metric("storage.pool_hit_rate",
                ratio(static_cast<double>(hits), static_cast<double>(logical)),
                "ratio");
  report.Metric("storage.evictions_per_query", static_cast<double>(evictions) / n,
                "count");
  report.Metric("storage.modeled_io_ms", Mean(modeled), "ms");
  report.Metric("storage.pages_written_per_commit",
                static_cast<double>(wt.pages_written) / commits, "count");
  report.Metric("storage.syncs_per_commit", static_cast<double>(wt.syncs) / commits,
                "count");
  report.Metric("storage.sync_us",
                ratio(static_cast<double>(wt.sync_micros), static_cast<double>(wt.syncs)),
                "us");
  report.Metric("array.bytes_per_cell", fp.array_bytes_per_cell, "B");
  report.Metric("array.overlay_cells", Mean(overlay), "count");
  report.Metric("ingest.write_us_per_cell",
                ratio(wt.write_s * 1e6, static_cast<double>(wt.cells)), "us");
  report.Metric("ingest.compact_ms", Mean(wt.compact_ms), "ms");
  report.Metric("ingest.live_generations", Mean(wt.live_generations), "count");
  report.Metric("ingest.reader_stall_ratio",
                ratio(Percentile(during, 0.9), Percentile(outside, 0.9)), "ratio");
  report.Metric("ingest.commit_p50_ms", Percentile(wt.commit_ms, 0.5), "ms");
  report.Metric("ingest.commit_p90_ms", Percentile(wt.commit_ms, 0.9), "ms");
  report.Metric("ingest.writer_late_ms", Percentile(wt.late_ms, 0.9), "ms");
}

}  // namespace perfbench
