// RunQuery: one entry point executing a ConsolidationQuery with any of the
// engines below over the same database, with uniform timing, buffer-pool
// I/O accounting, and the paper's cold-buffer protocol.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "query/query.h"
#include "query/result.h"
#include "schema/database.h"
#include "storage/buffer_pool.h"

namespace paradise {

namespace query {
class ConsolidationResultCache;
}  // namespace query

enum class EngineKind : uint8_t {
  /// OLAP Array ADT algorithms (§4.1 / §4.2, chosen by HasSelection()).
  kArray = 0,
  /// Star-join consolidation over the fact file (§4.3).
  kStarJoin,
  /// Bitmap join indexes + fact file (§4.5); requires a selection.
  kBitmap,
  /// Left-deep pipelined hash join (the §4.3 strawman).
  kLeftDeep,
  /// B-tree join indexes + fact file (the §4.4 baseline bitmap dominated);
  /// requires a selection and build_btree_join_indexes at load time.
  kBTreeSelect,
};

std::string_view EngineKindToString(EngineKind kind);

/// Cost model of the paper's 1997 I/O hardware (200 MHz Pentium Pro with a
/// 2 GB Quantum Fireball, §5.3). Our database file sits in the OS page
/// cache, so wall time reflects CPU only; this model translates the
/// buffer-pool miss counts back into disk-bound time: a sequential page read
/// moves 8 KiB at ~4 MB/s, a random one adds seek + rotation. DESIGN.md
/// lists this as an explicit substitution.
struct IoModel1997 {
  double seq_read_seconds = 0.002;
  double rand_read_seconds = 0.012;
};

/// I/O-bound elapsed-time estimate for a query's miss counts.
inline double ModeledIoSeconds(const BufferPoolStats& io,
                               const IoModel1997& model = IoModel1997{}) {
  return static_cast<double>(io.seq_disk_reads) * model.seq_read_seconds +
         static_cast<double>(io.rand_disk_reads) * model.rand_read_seconds;
}

/// How the result cache participated in one execution. kOff when no cache
/// was attached; kHit = exact-signature hit, kDerived = answered by rolling
/// up a cached finer-level result (query/result_cache.h), kMiss = cache was
/// consulted but the engine ran.
enum class CacheOutcome : uint8_t { kOff = 0, kMiss, kHit, kDerived };

std::string_view CacheOutcomeToString(CacheOutcome outcome);

struct ExecutionStats {
  double seconds = 0.0;
  BufferPoolStats io;   // delta over the query
  /// Every span the query opened — cache lookup/derive, drop-caches, then
  /// the engine's phases (index lookup → scan/probe+aggregate → merge →
  /// emit). Both the flat "phases" totals and the "trace" tree of ToJson
  /// are views of this one list.
  PhaseTimer phases;
  /// Algorithm-specific: array = chunks read; bitmap = set bits in
  /// the final bitmap; left-deep = materialized intermediate rows.
  uint64_t aux = 0;
  /// The engine that answered; names the trace root "query:<engine>".
  EngineKind engine = EngineKind::kArray;
  /// Whether ToJson writes the span tree (RunQueryOptions::trace).
  bool traced = false;

  /// Result-cache participation (kOff unless RunQueryOptions::cache is set).
  CacheOutcome cache_outcome = CacheOutcome::kOff;
  /// Rows of the cached source result a hit or derivation was served from.
  uint64_t cache_source_rows = 0;

  /// Decode kernel the array engine dispatched ("scalar" or "avx2",
  /// core/kernels/consolidate_kernel.h); "none" for the relational engines
  /// and cache hits, which never run the consolidation kernels.
  std::string kernel_isa = "none";

  /// The registered aggregate (core/aggregate_registry.h) the array engine
  /// answered from instead of the base cube; empty when it read the base.
  std::string aggregate;

  /// Disk-bound time estimate under the paper's hardware (see IoModel1997).
  double ModeledSeconds() const { return ModeledIoSeconds(io); }

  /// The stats as one JSON object — the schema every observability surface
  /// (tools/dbstats, the bench BENCH_*.json files) shares:
  ///   {"seconds":..,"modeled_seconds":..,"aux":..,"kernel_isa":"..",
  ///    "aggregate":"..",
  ///    "io":{"logical_reads":..,"hits":..,"disk_reads":..,
  ///          "seq_disk_reads":..,"rand_disk_reads":..,"disk_writes":..,
  ///          "evictions":..,"read_retries":..,"coalesced_reads":..,
  ///          "prefetched":..,"prefetch_hits":..,"prefetch_wasted":..},
  ///    "phases":{name:micros,...},
  ///    "cache":{"outcome":"off|miss|hit|derived","source_rows":..},
  ///    "trace":{"name":"query:<engine>","start_micros":0,
  ///             "duration_micros":..,"children":[...]}}
  /// "phases" maps each span name to the summed duration of its spans.
  /// "trace" (only when `traced`) nests the same spans under a root lasting
  /// until the last one closed; a span's "children" key is omitted when it
  /// has none.
  std::string ToJson() const;
};

struct Execution {
  query::GroupedResult result;
  ExecutionStats stats;
};

struct RunQueryOptions {
  /// Cold-buffer protocol (the paper's §5 default): flush and drop all
  /// buffered pages before the query.
  bool cold = true;
  /// Worker threads for the array engine (core/consolidate.h); 1 = the
  /// paper's serial algorithms, run inline. Other engines ignore this and
  /// run serially. Parallel runs produce bit-identical results to serial
  /// ones.
  size_t num_threads = 1;
  /// Include the span tree in ExecutionStats::ToJson (sets
  /// ExecutionStats::traced). The spans are recorded either way; this only
  /// decides whether the reply carries them.
  bool trace = false;
  /// Consolidation result cache (borrowed; may be shared across databases
  /// and threads). When set, RunQuery tries an exact-signature hit, then a
  /// roll-up derivation from a cached finer-level result, and only then runs
  /// the engine — inserting the fresh result afterwards. A hit skips the
  /// cold-buffer drop: the whole point of a result cache is not touching the
  /// storage layer. Cached answers are bit-identical to engine runs.
  query::ConsolidationResultCache* cache = nullptr;

  /// Pin result-cache lookups and inserts to this commit epoch instead of
  /// the database's current one. Used by epoch-pinned server sessions
  /// (server/session.h): if a checkpoint advances the epoch mid-query, the
  /// fresh result is still filed under the epoch the session connected at,
  /// so it can never poison the newer epoch's cache. No effect without
  /// `cache`; nullopt (the default) uses Database::commit_epoch().
  std::optional<uint64_t> cache_pin_epoch;

  /// Deadline/cancellation token (borrowed; may be flipped from another
  /// thread). Checked once before dispatch, then at every morsel boundary
  /// of the array executor (at least once per chunk) and on the first tuple
  /// of every fact page the relational engines read (plus once per index
  /// lookup and left-deep stage), so a fired token stops the query within
  /// one chunk's or one page's work and RunQuery returns the token's typed
  /// Status (kDeadlineExceeded / kCancelled) with no torn result and no
  /// leaked worker (DESIGN.md choice 13).
  const CancellationToken* cancel = nullptr;
};

/// Whether engine `kind` accepts `q` over `db`: the query fits the schema
/// (ConsolidationQuery::Validate), its measure exists, the array engine has
/// an array, and the bitmap and B-tree plans get at least one selection,
/// each on an attribute they hold an index for. RunQuery checks this on
/// every run, cached or not, so a cached answer never masks the error an
/// engine run would report; the planner asks it whether the bitmap plan is
/// available.
Status CheckEngineAccepts(const Database& db, EngineKind kind,
                          const query::ConsolidationQuery& q);

/// Runs `q` with engine `kind`. By default (the paper's protocol) all
/// buffered pages are flushed and dropped first; see RunQueryOptions.
Result<Execution> RunQuery(Database* db, EngineKind kind,
                           const query::ConsolidationQuery& q,
                           const RunQueryOptions& options = {});

}  // namespace paradise
