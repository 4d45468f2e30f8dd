// olapq: command-line client for olapd (server/client.h).
//
//   olapq [flags] "<sql>"
//   olapq [flags] --ping
//
// Connects, sends one query (or a ping), prints the result table plus the
// server's execution stats JSON, and exits. Typed server errors (engine
// failures, SERVER_BUSY, SNAPSHOT_GONE) print the wire-error class and the
// engine's message verbatim.
//
// Flags:
//   --host ADDR    server address (default 127.0.0.1)
//   --port N       server port (required)
//   --engine NAME  force array|starjoin|bitmap|leftdeep|btreeselect
//                  (default: let the server's planner choose)
//   --threads N    array-engine worker threads (default 1)
//   --trace        request the span tree ("trace") in the stats JSON
//   --no-cache     bypass the server's result cache
//   --timeout-ms N query deadline: the server aborts the query and replies
//                  QUERY_TIMEOUT once N ms elapse; the client also gives up
//                  (and closes the connection) if no reply arrives within
//                  4*N ms of wire budget (default 0 = no deadline)
//   --retries N    retry budget for transient failures: connect refusals
//                  and SERVER_BUSY replies, with exponential backoff +
//                  jitter (default 0 = fail fast)
//   --ping         round-trip a Ping frame instead of a query
//   --quiet        print only the stats JSON, not the result table
//   --repeat N     send the query N times over the SAME connection (same
//                  epoch-pinned session), printing each reply; used by the
//                  CI smoke test to hold a pinned snapshot across server-side
//                  ingest churn (default 1)
//   --sleep-ms N   sleep N ms between --repeat iterations (default 0)
//   --expect-snapshot-gone
//                  with --repeat: also treat SNAPSHOT_GONE as success — the
//                  typed reply IS the correct outcome for an epoch-pinned
//                  session whose snapshot was evicted by ingest churn
//
// Exit codes: 0 = result received (or pong), 2 = transport/usage error,
// 3 = typed server error, 4 = deadline exceeded or cancelled (the query
// was aborted, not failed — safe to retry with a larger --timeout-ms).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "query/engine.h"
#include "query/query.h"
#include "server/client.h"

namespace paradise {
namespace {

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string sql;
  server::QueryRequest request;
  uint32_t retries = 0;
  uint32_t repeat = 1;
  uint32_t sleep_ms = 0;
  bool ping = false;
  bool quiet = false;
  bool expect_snapshot_gone = false;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host ADDR] --port N [--engine NAME] "
               "[--threads N] [--trace] [--no-cache] [--timeout-ms N] "
               "[--retries N] [--quiet] [--repeat N] [--sleep-ms N] "
               "[--expect-snapshot-gone] (\"<sql>\" | --ping)\n",
               argv0);
  return 2;
}

bool ParseEngine(const std::string& name, uint8_t* out) {
  if (name == "array") *out = static_cast<uint8_t>(EngineKind::kArray) + 1;
  else if (name == "starjoin")
    *out = static_cast<uint8_t>(EngineKind::kStarJoin) + 1;
  else if (name == "bitmap")
    *out = static_cast<uint8_t>(EngineKind::kBitmap) + 1;
  else if (name == "leftdeep")
    *out = static_cast<uint8_t>(EngineKind::kLeftDeep) + 1;
  else if (name == "btreeselect")
    *out = static_cast<uint8_t>(EngineKind::kBTreeSelect) + 1;
  else
    return false;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ping") {
      args->ping = true;
    } else if (arg == "--trace") {
      args->request.trace = true;
    } else if (arg == "--no-cache") {
      args->request.no_cache = true;
    } else if (arg == "--quiet") {
      args->quiet = true;
    } else if (arg == "--host" && i + 1 < argc) {
      args->host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      args->port = static_cast<uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--engine" && i + 1 < argc) {
      if (!ParseEngine(argv[++i], &args->request.engine)) return false;
    } else if (arg == "--threads" && i + 1 < argc) {
      args->request.num_threads =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      args->request.deadline_ms =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--retries" && i + 1 < argc) {
      args->retries =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--repeat" && i + 1 < argc) {
      args->repeat =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--sleep-ms" && i + 1 < argc) {
      args->sleep_ms =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--expect-snapshot-gone") {
      args->expect_snapshot_gone = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else if (args->sql.empty()) {
      args->sql = arg;
    } else {
      return false;
    }
  }
  if (args->port == 0) return false;
  if (args->request.num_threads == 0 || args->repeat == 0) return false;
  // Exactly one of --ping / SQL.
  return args->ping == args->sql.empty();
}

int Run(const Args& args) {
  server::ClientOptions client_options;
  client_options.connect_retries = args.retries;
  client_options.busy_retries = args.retries;
  if (args.request.deadline_ms > 0) {
    // Wire budget: generously above the server-side deadline so the typed
    // QUERY_TIMEOUT reply (which arrives promptly) wins the race, and the
    // client-side cutoff only fires when the connection itself is dead.
    client_options.call_timeout_ms = args.request.deadline_ms * 4;
  }
  Result<std::unique_ptr<server::OlapClient>> client_or =
      server::OlapClient::Connect(args.host, args.port, client_options);
  if (!client_or.ok()) {
    std::fprintf(stderr, "olapq: %s\n", client_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<server::OlapClient> client = std::move(client_or).value();

  if (args.ping) {
    const Status st = client->Ping();
    if (!st.ok()) {
      std::fprintf(stderr, "olapq: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("pong (cube %s, epoch %llu)\n", client->hello().cube_name.c_str(),
                static_cast<unsigned long long>(client->hello().pinned_epoch));
    return 0;
  }

  server::QueryRequest request = args.request;
  request.sql = args.sql;
  for (uint32_t iteration = 0; iteration < args.repeat; ++iteration) {
    if (iteration > 0 && args.sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(args.sleep_ms));
    }
    Result<server::OlapClient::Reply> reply_or =
        client->QueryWithRetry(request);
    if (!reply_or.ok()) {
      std::fprintf(stderr, "olapq: %s\n",
                   reply_or.status().ToString().c_str());
      return reply_or.status().IsDeadlineExceeded() ? 4 : 2;
    }
    const server::OlapClient::Reply& reply = reply_or.value();
    if (!reply.ok) {
      if (args.expect_snapshot_gone &&
          reply.error.error == server::WireError::kSnapshotGone) {
        // The session outlived its pinned epoch's cached snapshot; the
        // typed reply is this smoke mode's other acceptable outcome.
        std::printf("snapshot_gone (epoch %llu)\n",
                    static_cast<unsigned long long>(
                        client->hello().pinned_epoch));
        continue;
      }
      std::fprintf(stderr, "olapq: %s: %s\n",
                   std::string(server::WireErrorToString(reply.error.error))
                       .c_str(),
                   server::ErrorReplyToStatus(reply.error).ToString().c_str());
      return (reply.error.error == server::WireError::kQueryTimeout ||
              reply.error.error == server::WireError::kCancelled)
                 ? 4
                 : 3;
    }

    const server::ResultReply& result = reply.result;
    if (!args.quiet) {
      std::printf("engine: %s", result.engine.c_str());
      if (!result.plan_reason.empty()) {
        std::printf(" (%s)", result.plan_reason.c_str());
      }
      std::printf("\n%s", result.result
                              .ToString(static_cast<query::AggFunc>(result.agg))
                              .c_str());
    }
    std::printf("%s\n", result.stats_json.c_str());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace paradise

int main(int argc, char** argv) {
  paradise::Args args;
  if (!paradise::ParseArgs(argc, argv, &args)) return paradise::Usage(argv[0]);
  return paradise::Run(args);
}
