// Shared plumbing for the perfbench workloads: argument parsing, the result
// line, latency statistics, database set-up, and the answer oracle.
//
// Everything here drives the library through its public headers only; the
// benchmark adds no instrumentation inside src/. Layer times in the traced
// runs come from timing calls into each module's public functions, from
// ExecutionStats, and from the MetricsRegistry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "gen/generator.h"
#include "query/query.h"
#include "query/result.h"
#include "schema/database.h"

namespace perfbench {

using paradise::Database;
using paradise::Result;
using paradise::Status;
namespace query = paradise::query;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for this run's database files.
  std::string data_dir;
  /// Name -> unit of every metric the result line must carry.
  std::map<std::string, std::string> metrics;
};

/// Exits with code 1 and a message on stderr; never prints a result line.
[[noreturn]] void Die(const std::string& what);
void Check(const Status& st, const std::string& what);
template <typename T>
T Must(Result<T> r, const std::string& what) {
  Check(r.status(), what);
  return std::move(r).value();
}

/// Monotonic wall clock, seconds.
double Now();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();
/// CPU seconds consumed by the whole process (all threads).
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// The machine's CPU speed over a run. On a shared 4-vCPU VM the same fixed
/// loop takes anywhere between 2.0 and 4.2 ms from one second to the next
/// (thread CPU time equal to wall time, no steal), so raw timings drift with
/// the neighbours' load. Probe() runs a fixed reference kernel (integer work
/// over a 256 KiB table, about 0.25 ms) on the calling thread and records the
/// thread CPU time it took: time the thread waits for a CPU, for example while
/// the library's own threads run beside it, does not count, so a change that
/// loads the CPUs with more library threads is not normalized away. The
/// workloads probe on the threads that issue the timed calls, right before
/// them. Slowdown() says how much slower than kNominalSeconds the reference
/// ran around an interval. Every end-to-end timing is divided by the slowdown
/// around it (qps multiplied), so the figures read as on a machine running the
/// reference at nominal speed. The raw figures and the run's median slowdown
/// are printed beside them. The reference moves less than the library's scans
/// when the machine's speed swings (see README.md), so it removes only part of
/// the drift.
class SpeedProbe {
 public:
  static constexpr double kNominalSeconds = 0.25e-3;

  SpeedProbe();

  /// Runs the reference kernel on the calling thread and records it.
  void Probe();

  /// Median reference time of the probes within 0.1 s of [t0, t1] (within
  /// 1 s when none is that close), divided by kNominalSeconds; 1 when no
  /// probe ran near the interval.
  double Slowdown(double t0, double t1) const;

 private:
  std::vector<uint64_t> table_;  // read-only after construction
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> probes_;  // (end, seconds), sorted
};

/// Probes every 10 ms from a background thread for its lifetime; covers
/// stretches with no natural probe point, such as building the databases
/// (the loader runs on one thread, so the probe has a CPU of its own).
class BackgroundProbe {
 public:
  explicit BackgroundProbe(SpeedProbe* speed);
  ~BackgroundProbe();
  BackgroundProbe(const BackgroundProbe&) = delete;
  BackgroundProbe& operator=(const BackgroundProbe&) = delete;

 private:
  SpeedProbe* speed_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// One timed call: start and end on the Now() clock.
struct Span {
  double t0 = 0;
  double t1 = 0;
};

/// Each span's duration in ms, divided by the slowdown around it.
std::vector<double> NormalizedMs(const SpeedProbe& speed,
                                 const std::vector<Span>& spans);
std::vector<double> RawMs(const std::vector<Span>& spans);

/// Closed-loop throughput of `callers` (each one caller's timed spans): per
/// caller, its calls ÷ the summed duration of its spans, summed over the
/// callers. Only time inside the timed calls counts, so the benchmark's own
/// work between calls (answer checks, speed probes) does not dilute it.
/// Durations are normalized as in NormalizedMs unless `speed` is null.
double ClosedLoopQps(const SpeedProbe* speed,
                     const std::vector<std::vector<Span>>& callers);

/// Share of the callers' wall time spent inside their timed calls.
double BusyShare(const std::vector<std::vector<Span>>& callers, double elapsed);

/// Nearest-rank percentile (p in (0, 1]) of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// What a run reports: the metrics of the result line plus the
/// attempted/failed/correct envelope. Notes are the human-readable lines
/// printed above the result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric that cannot be measured on this workload: reported as
  /// 0 with the reason printed as a note.
  void Absent(const std::string& name, const std::string& unit,
              const std::string& why);
  void Note(const std::string& line);
  /// Makes the metrics agree with `wanted` (name -> unit): a reported metric
  /// that is not wanted or has another unit fails the run. A wanted metric
  /// that was not reported fails the run when `absent_reason` is empty, and
  /// is otherwise reported Absent with that reason.
  void CheckAgainst(const std::map<std::string, std::string>& wanted,
                    const std::string& absent_reason);
  /// Records a wrong answer or a broken invariant; the run then reports
  /// correct=false and exits non-zero.
  void Fail(const std::string& why);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Failed(uint64_t n = 1) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failures_.empty() && failed_ == 0; }

  /// Prints the notes, then the result line; returns the exit code.
  int Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Database options every workload builds with: the paper's 8 KiB pages and
/// 16 MB buffer pool, and ChunkFormat::kAuto so codec work shows.
paradise::DatabaseOptions BenchOptions(bool metrics_enabled);

/// One database a workload runs on.
struct Cube {
  std::string name;
  std::string path;
  paradise::gen::GenConfig config;
  std::unique_ptr<Database> db;
};

/// Set-up of a workload's cubes, repeated `repeats` times (each repetition
/// rebuilds every cube from scratch over the same path); the cubes of the
/// last repetition are kept. setup_s is the median over the repetitions of
/// the time to build all cubes through BuildDatabaseFromConfig.
///
/// With `split_timing` the traced run instead replays the loader's steps
/// itself (gen::Generate, Database::Create plus the appends, FinishLoad) so
/// load and finish can be timed apart; the per-layer metrics schema.load_s
/// and schema.finish_load_s are the medians of those.
struct SetupTimes {
  double setup_s = 0;            // divided by the slowdown around each build
  std::vector<double> raw_each;  // each repetition as measured
  double load_s = 0;
  double finish_load_s = 0;
  /// "raw setup_s <median> (<each>)" for the run's notes.
  std::string RawSummary() const;
};
SetupTimes BuildCubes(const Args& args, SpeedProbe* speed,
                      std::vector<Cube>* cubes,
                      const paradise::DatabaseOptions& options, int repeats,
                      bool split_timing);

/// Storage footprint per valid cell, after the workload's final checkpoint:
/// database file bytes ÷ valid cells, and serialized array bytes ÷ cells.
struct Footprint {
  double file_bytes_per_cell = 0;
  double array_bytes_per_cell = 0;
};
Footprint MeasureFootprint(const std::vector<Cube*>& cubes,
                           const std::vector<uint64_t>& valid_cells);

/// The answer oracle: the relational star join's answer grouped by hX1 on
/// every dimension (the finest level any workload query groups at), computed
/// once at set-up. Every workload query groups by hX1, hX2 or nothing and
/// selects on hX2; since hX2 rolls hX1 up, its expected answer is a roll-up
/// of the finest answer — the paper's cross-engine equality, with the star
/// join as the independent engine. The constructor checks the roll-up
/// against a second star join grouped by hX2 everywhere.
///
/// For the ingest workload, AddCell folds a newly written (previously
/// empty) cell into the finest answer, so the expected answer at any epoch
/// is the base answer plus the benchmark's own record of its writes.
class Oracle {
 public:
  static Oracle FromStarJoin(Database* db);

  /// The per-group aggregate state the expectations roll up: one AggState
  /// per combination of hX1 members, row-major.
  using Finest = std::vector<query::AggState>;
  const Finest& finest() const { return finest_; }

  /// Expected canonical answer of `q` (SUM/COUNT/MIN/MAX state per group)
  /// over `finest` (default: the star join's answer).
  query::GroupedResult Expect(const query::ConsolidationQuery& q,
                              const Finest* finest = nullptr) const;

  /// Folds a write into a cell that held no value before.
  void AddCell(const std::vector<int32_t>& keys, int64_t value,
               Finest* finest) const;

  /// True when `got` (canonically sorted here) equals Expect(q, finest).
  bool Matches(const query::ConsolidationQuery& q, query::GroupedResult got,
               const Finest* finest = nullptr) const;

 private:
  size_t num_dims_ = 0;
  std::vector<int32_t> card1_;                  // hX1 cardinality per dim
  std::vector<uint64_t> stride_;                // row-major over card1_
  std::vector<std::vector<int32_t>> key_c1_;    // [dim][key] -> hX1 code
  std::vector<std::vector<int32_t>> c1_c2_;     // [dim][hX1 code] -> hX2 code
  std::vector<const paradise::DimensionTable*> dims_;
  Finest finest_;
};

/// A Query-1-family consolidation over 4 dimensions: each dimension grouped
/// by hX1 (column 1), by hX2 (column 2) or collapsed, no selection.
query::ConsolidationQuery RandomRollup(paradise::Random* rng);

/// Short label of a query's shape, e.g. "g1.g2.c.g1|s....".
std::string Shape(const query::ConsolidationQuery& q);

}  // namespace perfbench
