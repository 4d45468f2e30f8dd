// Server load bench: drives olapd's serving stack (server/server.h) with
// 1 → 256 concurrent clients over the shared demo cube and reports p50/p99
// latency and QPS per client count, plus the cost of admission control
// (SERVER_BUSY retries). Every reply is byte-compared against a golden
// serialization produced by the single-threaded engine before the server
// starts — the bench dies on the first divergence, so a passing run is a
// correctness statement about the concurrent path, not just a timing.
//
// The server runs in-process (loopback TCP, ephemeral port), so the numbers
// include the full wire round-trip: frame encode, socket, admission queue,
// epoch-pinned session, engine or result cache, frame decode.
//
// Besides the CSV, writes BENCH_server.json in the shared bench schema
// (sweep: clients → seconds + extras qps/p50_ms/p99_ms/busy_retries).
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
#include "gen/generator.h"
#include "query/planner.h"
#include "schema/demo_cube.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

using namespace paradise;         // NOLINT(build/namespaces)
using namespace paradise::bench;  // NOLINT(build/namespaces)

namespace {

void Die(const Status& st) {
  std::fprintf(stderr, "bench_server: %s\n", st.ToString().c_str());
  std::exit(1);
}

/// The mixed workload: Query 1-style full roll-ups at two granularities plus
/// two selection queries, so planner, array engine, bitmap-eligible paths
/// and the result cache all see concurrent traffic.
std::vector<std::string> Workload() {
  return {
      "select sum(volume), dim0.h01, dim1.h11, dim2.h21 from cube "
      "group by dim0.h01, dim1.h11, dim2.h21",
      "select sum(volume), dim0.h02, dim2.h22 from cube "
      "group by dim0.h02, dim2.h22",
      "select sum(volume), dim0.h01 from cube "
      "where dim1.h12 = '" + gen::AttrValue(1, 2, 0) + "' group by dim0.h01",
      "select avg(volume), dim1.h11 from cube "
      "where dim2.h22 = '" + gen::AttrValue(2, 2, 1) + "' "
      "and dim0.h02 = '" + gen::AttrValue(0, 2, 2) + "' group by dim1.h11",
  };
}

/// Golden bytes per workload query from the single-threaded engine, via the
/// same serializer the wire uses.
std::vector<std::string> Goldens(Database* db,
                                 const std::vector<std::string>& workload) {
  std::vector<std::string> goldens;
  for (const std::string& sql : workload) {
    Result<SqlExecution> exec = RunSql(db, sql);
    if (!exec.ok()) Die(exec.status());
    std::string bytes;
    server::AppendGroupedResult(exec->execution.result, &bytes);
    goldens.push_back(std::move(bytes));
  }
  return goldens;
}

struct ClientTally {
  std::vector<uint64_t> latency_micros;
  uint64_t busy_retries = 0;
  uint64_t divergences = 0;
  uint64_t err_timeout = 0;
  uint64_t err_cancelled = 0;
  uint64_t err_other = 0;
};

/// One client: its own connection, `queries` requests round-robin over the
/// workload (phase-shifted by client id), SERVER_BUSY retried with a small
/// exponential backoff.
ClientTally RunClient(const std::string& host, uint16_t port,
                      const std::vector<std::string>& workload,
                      const std::vector<std::string>& goldens, size_t id,
                      size_t queries) {
  ClientTally tally;
  Result<std::unique_ptr<server::OlapClient>> client_or =
      server::OlapClient::Connect(host, port);
  if (!client_or.ok()) Die(client_or.status());
  std::unique_ptr<server::OlapClient> client = std::move(client_or).value();

  tally.latency_micros.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    const size_t w = (id + i) % workload.size();
    const auto start = std::chrono::steady_clock::now();
    server::OlapClient::Reply reply;
    uint32_t backoff_us = 50;
    for (;;) {
      Result<server::OlapClient::Reply> reply_or =
          client->Query(workload[w]);
      if (!reply_or.ok()) Die(reply_or.status());
      reply = std::move(reply_or).value();
      if (reply.ok ||
          reply.error.error != server::WireError::kServerBusy) {
        break;
      }
      ++tally.busy_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = std::min<uint32_t>(backoff_us * 2, 5000);
    }
    const auto end = std::chrono::steady_clock::now();
    if (!reply.ok) {
      // Typed errors are tallied per code rather than fatal: with deadlines
      // and cancellation in the protocol they are expected outcomes, and the
      // bench's job is to report their frequency, not crash on them.
      switch (reply.error.error) {
        case server::WireError::kQueryTimeout: ++tally.err_timeout; break;
        case server::WireError::kCancelled: ++tally.err_cancelled; break;
        default: ++tally.err_other; break;
      }
      continue;
    }

    std::string bytes;
    server::AppendGroupedResult(reply.result.result, &bytes);
    if (bytes != goldens[w]) ++tally.divergences;

    tally.latency_micros.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count()));
  }
  return tally;
}

uint64_t Percentile(std::vector<uint64_t>* sorted_micros, double p) {
  if (sorted_micros->empty()) return 0;
  const size_t idx = std::min(
      sorted_micros->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_micros->size())));
  return (*sorted_micros)[idx];
}

}  // namespace

int main() {
  std::printf("# bench_server — concurrent clients vs olapd serving stack "
              "(demo cube, loopback TCP)\n");
  std::printf("clients,queries,seconds,qps,p50_ms,p99_ms,p999_ms,"
              "busy_retries,err_timeout,err_cancelled,err_other,"
              "divergences\n");

  BenchFile file("server");
  Result<std::unique_ptr<Database>> built = BuildDemoCube(file.path());
  if (!built.ok()) Die(built.status());
  std::unique_ptr<Database> db = std::move(built).value();

  const std::vector<std::string> workload = Workload();
  const std::vector<std::string> goldens = Goldens(db.get(), workload);

  server::ServerOptions options;
  // A deep queue: the bench measures queueing latency, not rejection, but
  // any SERVER_BUSY that does occur is retried and reported.
  options.max_inflight = std::max<size_t>(
      4, std::thread::hardware_concurrency());
  options.max_queued = 1024;
  server::OlapServer olapd(db.get(), options);
  if (Status st = olapd.Start(); !st.ok()) Die(st);

  BenchReport report(
      "server",
      "olapd serving stack: concurrent clients over loopback TCP on the "
      "demo cube; every reply byte-compared against single-threaded engine "
      "goldens");

  constexpr size_t kQueriesPerClient = 40;
  uint64_t total_divergences = 0;
  for (size_t clients : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    std::vector<ClientTally> tallies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        tallies[c] = RunClient(olapd.host(), olapd.port(), workload, goldens,
                               c, kQueriesPerClient);
      });
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    std::vector<uint64_t> latencies;
    uint64_t busy_retries = 0;
    uint64_t divergences = 0;
    uint64_t err_timeout = 0;
    uint64_t err_cancelled = 0;
    uint64_t err_other = 0;
    for (const ClientTally& tally : tallies) {
      latencies.insert(latencies.end(), tally.latency_micros.begin(),
                       tally.latency_micros.end());
      busy_retries += tally.busy_retries;
      divergences += tally.divergences;
      err_timeout += tally.err_timeout;
      err_cancelled += tally.err_cancelled;
      err_other += tally.err_other;
    }
    std::sort(latencies.begin(), latencies.end());
    const uint64_t p50 = Percentile(&latencies, 0.50);
    const uint64_t p99 = Percentile(&latencies, 0.99);
    const uint64_t p999 = Percentile(&latencies, 0.999);
    const double qps =
        seconds > 0 ? static_cast<double>(latencies.size()) / seconds : 0;
    total_divergences += divergences;

    std::printf("%zu,%zu,%.3f,%.0f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,"
                "%llu\n",
                clients, latencies.size(), seconds, qps,
                static_cast<double>(p50) / 1000.0,
                static_cast<double>(p99) / 1000.0,
                static_cast<double>(p999) / 1000.0,
                static_cast<unsigned long long>(busy_retries),
                static_cast<unsigned long long>(err_timeout),
                static_cast<unsigned long long>(err_cancelled),
                static_cast<unsigned long long>(err_other),
                static_cast<unsigned long long>(divergences));
    std::fflush(stdout);

    ExecutionStats stats;
    stats.seconds = seconds;
    report.Add({{"clients", std::to_string(clients)}}, "server",
               static_cast<uint64_t>(latencies.size()), stats,
               {{"qps", qps},
                {"p50_ms", static_cast<double>(p50) / 1000.0},
                {"p99_ms", static_cast<double>(p99) / 1000.0},
                {"p999_ms", static_cast<double>(p999) / 1000.0},
                {"busy_retries", static_cast<double>(busy_retries)},
                {"err_timeout", static_cast<double>(err_timeout)},
                {"err_cancelled", static_cast<double>(err_cancelled)},
                {"err_other", static_cast<double>(err_other)},
                {"divergences", static_cast<double>(divergences)}});
  }

  olapd.Stop();
  const server::OlapServer::Stats stats = olapd.stats();
  std::printf("# served %llu connections, %llu ok queries, %llu busy "
              "replies\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.queries_ok),
              static_cast<unsigned long long>(stats.busy_replies));
  report.WriteFile();

  if (total_divergences > 0) {
    std::fprintf(stderr,
                 "bench_server: %llu replies diverged from the "
                 "single-threaded goldens\n",
                 static_cast<unsigned long long>(total_divergences));
    return 1;
  }
  return 0;
}
