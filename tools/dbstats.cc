// dbstats: observability snapshot for a paradise database file.
//
//   dbstats [flags] <database-file>
//
// Opens the database with metrics enabled, runs one consolidation query
// under tracing, and prints a single JSON document to stdout:
//
//   {"file": {...},             // path, page size, format, page count
//    "storage": {...},          // Database::ReportStorage footprints
//    "array": {...},            // layout summary (when the cube has one)
//    "query": {"engine":..,"threads":..,"groups":..,
//              "stats": <ExecutionStats::ToJson>},   // incl. "trace","cache"
//    "cached_query": {...},     // same query re-run warm through the result
//                               // cache (a hit; resultcache.* counters land
//                               // in the registry below)
//    "registry": <MetricsRegistry::ToJson>}          // process-wide metrics
//
// The "stats" object is the same schema the bench binaries write into their
// BENCH_*.json files, and the recipe in EXPERIMENTS.md uses the trace spans
// to reproduce the paper's §5.5.1 phase breakdown.
//
// Flags:
//   --make-demo      build a small synthetic demo cube at <database-file>
//                    first (overwrites; used by the CI smoke test)
//   --engine NAME    array|starjoin|bitmap|leftdeep (default array)
//   --threads N      array-engine worker threads (default 1)
//   --warm           skip the cold-buffer protocol before the query
//   --no-trace       omit the span tree ("trace") from the query stats
//   --no-query       snapshot file/storage/registry state only
//   --exercise-server
//                    spin up an in-process olapd on loopback and drive one
//                    timed-out, one cancelled, and one queue-shed query
//                    through it, so the server.timeouts / server.cancelled /
//                    admission.shed_expired resilience counters appear in
//                    the registry snapshot (used by the CI smoke test)
//   --exercise-ingest
//                    write a handful of cells through the incremental ingest
//                    path (commit, compact, then one more uncompacted
//                    commit), so the "ingest" section and the ingest.*
//                    registry counters are non-zero (used by the CI smoke
//                    test; mutates the file)
//
// The "ingest" section is always present when the cube has an OLAP array:
// {"applied_cells","live_generations","overlay_cells","pending_cells",
//  "commits","compactions","retired_pending"}.
//
// Exit codes: 0 = ok, 2 = could not run.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "ingest/ingest.h"
#include "query/engine.h"
#include "query/result_cache.h"
#include "schema/database.h"
#include "schema/demo_cube.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/page.h"

namespace paradise {
namespace {

struct Args {
  std::string path;
  std::string engine = "array";
  size_t threads = 1;
  bool make_demo = false;
  bool warm = false;
  bool trace = true;
  bool run_query = true;
  bool exercise_server = false;
  bool exercise_ingest = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--make-demo] [--engine array|starjoin|bitmap|"
               "leftdeep] [--threads N] [--warm] [--no-trace] [--no-query] "
               "[--exercise-server] [--exercise-ingest] <database-file>\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--make-demo") {
      args->make_demo = true;
    } else if (arg == "--warm") {
      args->warm = true;
    } else if (arg == "--no-trace") {
      args->trace = false;
    } else if (arg == "--no-query") {
      args->run_query = false;
    } else if (arg == "--exercise-server") {
      args->exercise_server = true;
    } else if (arg == "--exercise-ingest") {
      args->exercise_ingest = true;
    } else if (arg == "--engine" && i + 1 < argc) {
      args->engine = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      args->threads = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else if (args->path.empty()) {
      args->path = arg;
    } else {
      return false;
    }
  }
  return !args->path.empty() && args->threads > 0;
}

Result<EngineKind> ParseEngine(const std::string& name) {
  if (name == "array") return EngineKind::kArray;
  if (name == "starjoin") return EngineKind::kStarJoin;
  if (name == "bitmap") return EngineKind::kBitmap;
  if (name == "leftdeep") return EngineKind::kLeftDeep;
  if (name == "btreeselect") return EngineKind::kBTreeSelect;
  return Status::InvalidArgument("unknown engine: " + name);
}

/// Starts an in-process olapd on loopback and drives exactly three
/// resilience outcomes through the wire protocol — a query that outlives
/// its deadline, a query cancelled mid-flight, and a query shed from the
/// admission queue after expiring — so the server.timeouts /
/// server.cancelled / admission.shed_expired counters land in the registry
/// snapshot below. The artificial per-query delay makes all three outcomes
/// deterministic regardless of how fast the demo cube evaluates.
Status ExerciseServer(Database* db) {
  server::ServerOptions options;
  options.metrics_enabled = true;
  options.max_inflight = 1;
  options.max_queued = 4;
  options.artificial_query_delay_ms = 200;
  server::OlapServer olapd(db, options);
  PARADISE_RETURN_IF_ERROR(olapd.Start());

  const std::string sql =
      "select sum(volume), dim0.h01 from cube group by dim0.h01";
  const auto expect = [](const Result<server::OlapClient::Reply>& reply,
                         server::WireError want) -> Status {
    PARADISE_RETURN_IF_ERROR(reply.status());
    if (reply->ok || reply->error.error != want) {
      return Status::Internal(
          "exercise-server: expected " +
          std::string(server::WireErrorToString(want)) + ", got " +
          (reply->ok
               ? std::string("a result")
               : std::string(server::WireErrorToString(reply->error.error))));
    }
    return Status::OK();
  };

  PARADISE_ASSIGN_OR_RETURN(
      std::unique_ptr<server::OlapClient> client,
      server::OlapClient::Connect(olapd.host(), olapd.port()));

  // 1. Timeout: a 20 ms deadline against a 200 ms query.
  server::QueryRequest timed;
  timed.sql = sql;
  timed.deadline_ms = 20;
  PARADISE_RETURN_IF_ERROR(
      expect(client->Query(timed), server::WireError::kQueryTimeout));

  // 2. Cancel: fire the query, then race a CANCEL frame into its delay.
  server::QueryRequest plain;
  plain.sql = sql;
  PARADISE_RETURN_IF_ERROR(client->SendRaw(server::EncodeFrame(
      server::FrameType::kQuery, server::EncodeQueryRequest(plain))));
  PARADISE_RETURN_IF_ERROR(client->Cancel());
  {
    PARADISE_ASSIGN_OR_RETURN(server::Frame frame, client->ReadFrame());
    if (frame.type != server::FrameType::kError) {
      return Status::Internal("exercise-server: cancel raced a result");
    }
    PARADISE_ASSIGN_OR_RETURN(server::ErrorReply error,
                              server::DecodeErrorReply(frame.payload));
    if (error.error != server::WireError::kCancelled) {
      return Status::Internal("exercise-server: expected CANCELLED, got " +
                              std::string(
                                  server::WireErrorToString(error.error)));
    }
  }

  // 3. Shed: occupy the single admission slot, then queue a query whose
  // deadline expires while it waits.
  PARADISE_RETURN_IF_ERROR(client->SendRaw(server::EncodeFrame(
      server::FrameType::kQuery, server::EncodeQueryRequest(plain))));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  PARADISE_ASSIGN_OR_RETURN(
      std::unique_ptr<server::OlapClient> second,
      server::OlapClient::Connect(olapd.host(), olapd.port()));
  PARADISE_RETURN_IF_ERROR(
      expect(second->Query(timed), server::WireError::kQueryTimeout));
  PARADISE_ASSIGN_OR_RETURN(server::Frame held, client->ReadFrame());
  if (held.type != server::FrameType::kResult) {
    return Status::Internal("exercise-server: slot-holding query failed");
  }

  olapd.Stop();
  return Status::OK();
}

/// Drives the incremental ingest path end to end — a committed-and-compacted
/// batch, then a second commit left as a live overlay — so the "ingest"
/// section and every ingest.* registry counter carry real values. Keys are
/// taken from the existing dimension rows (ingest never grows dimensions).
Status ExerciseIngest(Database* db) {
  if (!db->has_olap() || db->ingest() == nullptr) {
    return Status::NotSupported("--exercise-ingest requires the OLAP array");
  }
  const size_t num_dims = db->schema().num_dims();
  const size_t num_measures = db->olap()->num_measures();
  auto write_batch = [&](int salt, int count) -> Status {
    for (int i = 0; i < count; ++i) {
      std::vector<int32_t> keys(num_dims);
      for (size_t d = 0; d < num_dims; ++d) {
        const auto& rows = db->dim(d).rows();
        keys[d] = rows[(static_cast<size_t>(salt) + i) % rows.size()]
                      .GetInt32(0);
      }
      std::vector<int64_t> measures(num_measures);
      for (size_t m = 0; m < num_measures; ++m) {
        measures[m] = 1000 * (salt + 1) + i;
      }
      PARADISE_RETURN_IF_ERROR(db->ingest()->Write(keys, measures));
    }
    return Status::OK();
  };
  PARADISE_RETURN_IF_ERROR(write_batch(0, 8));
  PARADISE_RETURN_IF_ERROR(db->ingest()->Commit());
  PARADISE_RETURN_IF_ERROR(db->ingest()->Compact());
  PARADISE_RETURN_IF_ERROR(write_batch(1, 4));
  return db->ingest()->Commit();
}

Status Run(const Args& args) {
  if (args.make_demo) {
    // The demo cube is shared with olapd --make-demo (schema/demo_cube.h).
    PARADISE_RETURN_IF_ERROR(BuildDemoCube(args.path).status());
  }
  PARADISE_ASSIGN_OR_RETURN(StorageOptions storage,
                            ProbeStorageOptions(args.path));
  DatabaseOptions options;
  options.storage = storage;
  options.storage.metrics_enabled = true;
  PARADISE_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                            Database::Open(args.path, options));

  JsonWriter w;
  w.BeginObject();

  w.Key("file");
  w.BeginObject();
  w.KV("path", args.path);
  w.KV("page_size",
       static_cast<uint64_t>(db->storage()->disk()->page_size()));
  w.KV("format_version", uint64_t{page_header::kFormatVersion});
  w.KV("page_count", db->storage()->disk()->page_count());
  w.EndObject();

  PARADISE_ASSIGN_OR_RETURN(Database::StorageReport report,
                            db->ReportStorage());
  w.Key("storage");
  w.BeginObject();
  w.KV("fact_file_bytes", report.fact_file_bytes);
  w.KV("array_data_bytes", report.array_data_bytes);
  w.KV("array_pages_bytes", report.array_pages_bytes);
  w.KV("bitmap_bytes", report.bitmap_bytes);
  w.KV("file_bytes", report.file_bytes);
  w.EndObject();

  if (db->has_olap()) {
    const ChunkLayout& layout = db->olap()->layout();
    w.Key("array");
    w.BeginObject();
    w.KV("layout", layout.ToString());
    w.KV("num_chunks", layout.num_chunks());
    w.KV("total_cells", layout.total_cells());
    w.EndObject();
  }

  if (args.run_query) {
    PARADISE_ASSIGN_OR_RETURN(EngineKind kind, ParseEngine(args.engine));
    // The standard template: group by attribute column 1 of every dimension
    // (the paper's Query 1), which exercises plan, scan and aggregate spans
    // on every engine.
    query::ConsolidationQuery q =
        gen::Query1(db->schema().num_dims());
    RunQueryOptions run_options;
    run_options.cold = !args.warm;
    run_options.num_threads = args.threads;
    run_options.trace = args.trace;
    PARADISE_ASSIGN_OR_RETURN(Execution exec,
                              RunQuery(db.get(), kind, q, run_options));
    w.Key("query");
    w.BeginObject();
    w.KV("engine", args.engine);
    w.KV("threads", static_cast<uint64_t>(args.threads));
    w.KV("cold", run_options.cold);
    w.KV("groups", static_cast<uint64_t>(exec.result.num_groups()));
    w.Key("stats");
    w.Raw(exec.stats.ToJson());
    w.EndObject();

    // Run the same query twice through a fresh result cache (miss, then
    // hit) so the snapshot shows the cached-path stats and populates the
    // resultcache.* registry metrics the CI smoke test asserts on.
    query::ConsolidationResultCache::Options cache_options;
    cache_options.metrics_enabled = true;
    query::ConsolidationResultCache cache(cache_options);
    run_options.cache = &cache;
    run_options.cold = false;
    PARADISE_RETURN_IF_ERROR(
        RunQuery(db.get(), kind, q, run_options).status());
    PARADISE_ASSIGN_OR_RETURN(Execution warm,
                              RunQuery(db.get(), kind, q, run_options));
    const query::ResultCacheStats cache_stats = cache.stats();
    w.Key("cached_query");
    w.BeginObject();
    w.KV("engine", args.engine);
    w.KV("groups", static_cast<uint64_t>(warm.result.num_groups()));
    w.KV("hits", cache_stats.hits);
    w.KV("misses", cache_stats.misses);
    w.KV("bytes_in_use", cache_stats.bytes_in_use);
    w.Key("stats");
    w.Raw(warm.stats.ToJson());
    w.EndObject();
  }

  if (args.exercise_server) {
    PARADISE_RETURN_IF_ERROR(ExerciseServer(db.get()));
  }

  if (args.exercise_ingest) {
    PARADISE_RETURN_IF_ERROR(ExerciseIngest(db.get()));
  }

  if (db->ingest() != nullptr) {
    const IngestManager::Stats is = db->ingest()->stats();
    w.Key("ingest");
    w.BeginObject();
    w.KV("applied_cells", is.applied_cells);
    w.KV("live_generations", is.live_generations);
    w.KV("overlay_cells", is.overlay_cells);
    w.KV("pending_cells", is.pending_cells);
    w.KV("commits", is.commits);
    w.KV("compactions", is.compactions);
    w.KV("retired_pending", is.retired_pending);
    w.EndObject();
  }

  w.Key("registry");
  w.Raw(MetricsRegistry::Default().ToJson());
  w.EndObject();

  std::printf("%s\n", w.str().c_str());
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  const Status st = Run(args);
  if (!st.ok()) {
    std::fprintf(stderr, "dbstats: %s\n", st.ToString().c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace paradise

int main(int argc, char** argv) { return paradise::Main(argc, argv); }
