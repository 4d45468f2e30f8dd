// Resilience bench: the serving stack under deadlines, cancels and network
// faults. Two passes over the same server and workload:
//
//   clean    healthy clients only — the baseline latency distribution;
//   faulted  the same healthy clients, now sharing the server with chaos
//            clients whose sockets inject short reads/writes, stalls,
//            mid-frame disconnects and truncations (server/fault_socket.h),
//            while a slice of all traffic carries 1 ms deadlines or races a
//            kCancel.
//
// Reported per pass: p50/p99/p999 of the healthy clients' latencies, QPS,
// and the full error taxonomy (ok / timeout / cancelled / busy / transport
// / faults injected). Every successful reply is byte-compared against the
// single-threaded goldens — the bench dies on the first divergence, so a
// passing run proves isolation: a hostile network degrades its own
// connections, not the answers (or liveness) of healthy ones.
//
// Besides the CSV, writes BENCH_resilience.json in the shared bench schema.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/random.h"
#include "gen/generator.h"
#include "query/planner.h"
#include "schema/demo_cube.h"
#include "server/client.h"
#include "server/fault_socket.h"
#include "server/server.h"
#include "server/wire.h"

using namespace paradise;         // NOLINT(build/namespaces)
using namespace paradise::bench;  // NOLINT(build/namespaces)

namespace {

void Die(const Status& st) {
  std::fprintf(stderr, "bench_resilience: %s\n", st.ToString().c_str());
  std::exit(1);
}

std::vector<std::string> Workload() {
  return {
      "select sum(volume), dim0.h01, dim1.h11, dim2.h21 from cube "
      "group by dim0.h01, dim1.h11, dim2.h21",
      "select sum(volume), dim0.h02, dim2.h22 from cube "
      "group by dim0.h02, dim2.h22",
      "select sum(volume), dim0.h01 from cube "
      "where dim1.h12 = '" + gen::AttrValue(1, 2, 0) + "' group by dim0.h01",
      "select avg(volume), dim1.h11 from cube "
      "where dim2.h22 = '" + gen::AttrValue(2, 2, 1) + "' group by dim1.h11",
  };
}

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

struct Tally {
  std::vector<uint64_t> latency_micros;
  uint64_t ok = 0;
  uint64_t err_timeout = 0;
  uint64_t err_cancelled = 0;
  uint64_t err_busy = 0;
  uint64_t err_transport = 0;
  uint64_t divergences = 0;
  uint64_t faults_injected = 0;

  void Accumulate(const Tally& other) {
    latency_micros.insert(latency_micros.end(), other.latency_micros.begin(),
                          other.latency_micros.end());
    ok += other.ok;
    err_timeout += other.err_timeout;
    err_cancelled += other.err_cancelled;
    err_busy += other.err_busy;
    err_transport += other.err_transport;
    divergences += other.divergences;
    faults_injected += other.faults_injected;
  }
};

/// One healthy client: OlapClient with busy retries; a slice of queries
/// carries a 1 ms deadline or races a cancel. Latencies are recorded for
/// clean successes only, so the percentiles compare like with like across
/// passes.
Tally RunHealthyClient(const std::string& host, uint16_t port,
                       const std::vector<std::string>& workload,
                       const std::vector<std::string>& goldens, size_t id,
                       size_t queries, uint64_t seed) {
  Tally tally;
  Random rng(seed * 7919 + id);
  server::ClientOptions options;
  options.call_timeout_ms = 30'000;
  options.busy_retries = 8;
  options.retry_seed = seed * 31 + id;
  Result<std::unique_ptr<server::OlapClient>> client_or =
      server::OlapClient::Connect(host, port, options);
  if (!client_or.ok()) Die(client_or.status());
  std::unique_ptr<server::OlapClient> client = std::move(client_or).value();

  tally.latency_micros.reserve(queries);
  for (size_t i = 0; i < queries; ++i) {
    const size_t w = rng.Uniform(workload.size());
    server::QueryRequest request;
    request.sql = workload[w];
    request.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    const bool with_deadline = rng.Bernoulli(0.10);
    const bool with_cancel = !with_deadline && rng.Bernoulli(0.10);
    if (with_deadline) request.deadline_ms = 1;

    if (with_cancel) {
      Status sent = client->SendRaw(server::EncodeFrame(
          server::FrameType::kQuery, server::EncodeQueryRequest(request)));
      if (sent.ok()) sent = client->Cancel();
      if (!sent.ok()) Die(sent);
      Result<server::Frame> frame = client->ReadFrame();
      if (!frame.ok()) Die(frame.status());
      if (frame->type == server::FrameType::kResult) {
        Result<server::ResultReply> result =
            server::DecodeResultReply(frame->payload);
        if (!result.ok()) Die(result.status());
        ++tally.ok;
        std::string bytes;
        server::AppendGroupedResult(result->result, &bytes);
        if (bytes != goldens[w]) ++tally.divergences;
      } else {
        ++tally.err_cancelled;
      }
      continue;
    }

    const auto start = std::chrono::steady_clock::now();
    Result<server::OlapClient::Reply> reply = client->QueryWithRetry(request);
    const auto end = std::chrono::steady_clock::now();
    if (!reply.ok()) Die(reply.status());
    if (reply->ok) {
      ++tally.ok;
      std::string bytes;
      server::AppendGroupedResult(reply->result.result, &bytes);
      if (bytes != goldens[w]) ++tally.divergences;
      if (!with_deadline) {
        tally.latency_micros.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(end - start)
                .count()));
      }
    } else if (reply->error.error == server::WireError::kQueryTimeout) {
      ++tally.err_timeout;
    } else if (reply->error.error == server::WireError::kCancelled) {
      ++tally.err_cancelled;
    } else if (reply->error.error == server::WireError::kServerBusy) {
      ++tally.err_busy;
    } else {
      Die(server::ErrorReplyToStatus(reply->error));
    }
  }
  return tally;
}

/// One chaos client: the wire protocol spoken over a fault-injecting socket
/// (~30% of operations carry an injected fault). Transport errors reconnect
/// and continue; successful replies still must match the goldens.
Tally RunChaosClient(const std::string& host, uint16_t port,
                     const std::vector<std::string>& workload,
                     const std::vector<std::string>& goldens, size_t id,
                     size_t queries, uint64_t seed) {
  Tally tally;
  Random rng(seed * 104729 + id);
  server::SocketFaultOptions faults;
  faults.seed = seed * 1299709 + id;
  faults.short_read_probability = 0.10;
  faults.short_write_probability = 0.10;
  faults.stall_probability = 0.05;
  faults.stall_ms = 2;
  faults.disconnect_probability = 0.05;
  faults.truncate_write_probability = 0.05;

  std::unique_ptr<server::FaultSocket> sock;
  std::unique_ptr<server::FrameDecoder> decoder;
  char buf[16 * 1024];

  const auto read_frame = [&]() -> Result<server::Frame> {
    for (;;) {
      PARADISE_ASSIGN_OR_RETURN(std::optional<server::Frame> frame,
                                decoder->Next());
      if (frame.has_value()) return std::move(*frame);
      PARADISE_ASSIGN_OR_RETURN(size_t n, sock->Recv(buf, sizeof(buf)));
      if (n == 0) return Status::IOError("server closed the connection");
      decoder->Append(buf, n);
    }
  };
  const auto reconnect = [&]() -> bool {
    if (sock != nullptr) tally.faults_injected += sock->injected_faults();
    faults.seed += 1;
    Result<std::unique_ptr<server::FaultSocket>> dialed =
        server::FaultSocket::Dial(host, port, faults);
    if (!dialed.ok()) return false;
    sock = std::move(dialed).value();
    decoder = std::make_unique<server::FrameDecoder>();
    Result<server::Frame> hello = read_frame();
    return hello.ok() && hello->type == server::FrameType::kHello;
  };
  if (!reconnect()) {
    ++tally.err_transport;
    return tally;
  }

  for (size_t i = 0; i < queries; ++i) {
    if (sock == nullptr || sock->closed()) {
      if (!reconnect()) {
        ++tally.err_transport;
        break;
      }
    }
    const size_t w = rng.Uniform(workload.size());
    server::QueryRequest request;
    request.sql = workload[w];
    request.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));
    if (rng.Bernoulli(0.10)) request.deadline_ms = 1;

    Status sent = sock->Send(server::EncodeFrame(
        server::FrameType::kQuery, server::EncodeQueryRequest(request)));
    if (sent.ok() && rng.Bernoulli(0.10)) {
      sent = sock->Send(server::EncodeFrame(server::FrameType::kCancel, ""));
    }
    if (!sent.ok()) {
      ++tally.err_transport;
      sock->Close();
      continue;
    }
    Result<server::Frame> frame = read_frame();
    if (!frame.ok()) {
      ++tally.err_transport;
      sock->Close();
      continue;
    }
    if (frame->type == server::FrameType::kResult) {
      Result<server::ResultReply> result =
          server::DecodeResultReply(frame->payload);
      if (!result.ok()) {
        ++tally.err_transport;
        sock->Close();
        continue;
      }
      ++tally.ok;
      std::string bytes;
      server::AppendGroupedResult(result->result, &bytes);
      if (bytes != goldens[w]) ++tally.divergences;
    } else if (frame->type == server::FrameType::kError) {
      Result<server::ErrorReply> error =
          server::DecodeErrorReply(frame->payload);
      if (!error.ok()) {
        ++tally.err_transport;
        sock->Close();
        continue;
      }
      switch (error->error) {
        case server::WireError::kQueryTimeout:
          ++tally.err_timeout;
          break;
        case server::WireError::kCancelled:
          ++tally.err_cancelled;
          break;
        case server::WireError::kServerBusy:
          ++tally.err_busy;
          break;
        default:
          ++tally.err_transport;
          break;
      }
    } else {
      ++tally.err_transport;
      sock->Close();
    }
  }
  if (sock != nullptr) tally.faults_injected += sock->injected_faults();
  return tally;
}

uint64_t Percentile(const std::vector<uint64_t>& sorted_micros, double p) {
  if (sorted_micros.empty()) return 0;
  const size_t idx = std::min(
      sorted_micros.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_micros.size())));
  return sorted_micros[idx];
}

}  // namespace

int main() {
  std::printf("# bench_resilience — olapd under deadlines, cancels and "
              "injected network faults (demo cube, loopback TCP)\n");
  std::printf("mode,queries,seconds,qps,p50_ms,p99_ms,p999_ms,ok,"
              "err_timeout,err_cancelled,err_busy,err_transport,"
              "faults_injected,divergences\n");

  BenchFile file("resilience");
  Result<std::unique_ptr<Database>> built = BuildDemoCube(file.path());
  if (!built.ok()) Die(built.status());
  std::unique_ptr<Database> db = std::move(built).value();

  const std::vector<std::string> workload = Workload();
  const std::vector<std::string> goldens = Goldens(db.get(), workload);

  server::ServerOptions options;
  options.max_inflight =
      std::max<size_t>(4, std::thread::hardware_concurrency());
  options.max_queued = 1024;
  options.read_timeout_ms = 2'000;  // reap truncated/stalled chaos frames
  server::OlapServer olapd(db.get(), options);
  if (Status st = olapd.Start(); !st.ok()) Die(st);

  BenchReport report(
      "resilience",
      "olapd under fire: healthy clients' latency distribution and error "
      "taxonomy with and without co-resident fault-injecting chaos clients; "
      "all successful replies byte-compared against single-threaded "
      "goldens");

  constexpr size_t kHealthyClients = 8;
  constexpr size_t kChaosClients = 8;
  constexpr size_t kQueriesPerClient = 150;
  constexpr uint64_t kSeed = 1;
  uint64_t total_divergences = 0;

  for (const bool faulted : {false, true}) {
    std::vector<Tally> tallies(kHealthyClients + (faulted ? kChaosClients : 0));
    std::vector<std::thread> threads;
    threads.reserve(tallies.size());
    const auto start = std::chrono::steady_clock::now();
    for (size_t c = 0; c < kHealthyClients; ++c) {
      threads.emplace_back([&, c] {
        tallies[c] = RunHealthyClient(olapd.host(), olapd.port(), workload,
                                      goldens, c, kQueriesPerClient, kSeed);
      });
    }
    if (faulted) {
      for (size_t c = 0; c < kChaosClients; ++c) {
        threads.emplace_back([&, c] {
          tallies[kHealthyClients + c] =
              RunChaosClient(olapd.host(), olapd.port(), workload, goldens, c,
                             kQueriesPerClient, kSeed);
        });
      }
    }
    for (std::thread& t : threads) t.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    Tally total;
    for (const Tally& tally : tallies) total.Accumulate(tally);
    std::sort(total.latency_micros.begin(), total.latency_micros.end());
    const uint64_t p50 = Percentile(total.latency_micros, 0.50);
    const uint64_t p99 = Percentile(total.latency_micros, 0.99);
    const uint64_t p999 = Percentile(total.latency_micros, 0.999);
    const uint64_t attempted =
        kQueriesPerClient * (kHealthyClients + (faulted ? kChaosClients : 0));
    const double qps =
        seconds > 0 ? static_cast<double>(attempted) / seconds : 0;
    total_divergences += total.divergences;

    const char* mode = faulted ? "faulted" : "clean";
    std::printf(
        "%s,%llu,%.3f,%.0f,%.3f,%.3f,%.3f,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu\n",
        mode, static_cast<unsigned long long>(attempted), seconds, qps,
        static_cast<double>(p50) / 1000.0, static_cast<double>(p99) / 1000.0,
        static_cast<double>(p999) / 1000.0,
        static_cast<unsigned long long>(total.ok),
        static_cast<unsigned long long>(total.err_timeout),
        static_cast<unsigned long long>(total.err_cancelled),
        static_cast<unsigned long long>(total.err_busy),
        static_cast<unsigned long long>(total.err_transport),
        static_cast<unsigned long long>(total.faults_injected),
        static_cast<unsigned long long>(total.divergences));
    std::fflush(stdout);

    ExecutionStats stats;
    stats.seconds = seconds;
    report.Add({{"mode", mode}}, "server", total.ok, stats,
               {{"qps", qps},
                {"p50_ms", static_cast<double>(p50) / 1000.0},
                {"p99_ms", static_cast<double>(p99) / 1000.0},
                {"p999_ms", static_cast<double>(p999) / 1000.0},
                {"ok", static_cast<double>(total.ok)},
                {"err_timeout", static_cast<double>(total.err_timeout)},
                {"err_cancelled", static_cast<double>(total.err_cancelled)},
                {"err_busy", static_cast<double>(total.err_busy)},
                {"err_transport", static_cast<double>(total.err_transport)},
                {"faults_injected",
                 static_cast<double>(total.faults_injected)},
                {"divergences", static_cast<double>(total.divergences)}});
  }

  olapd.Stop();
  const server::OlapServer::Stats stats = olapd.stats();
  std::printf("# server: %llu connections, %llu ok, %llu timeouts "
              "(%llu shed while queued), %llu cancelled, %llu read timeouts, "
              "%llu protocol errors\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.queries_ok),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.shed_expired),
              static_cast<unsigned long long>(stats.cancelled),
              static_cast<unsigned long long>(stats.read_timeouts),
              static_cast<unsigned long long>(stats.protocol_errors));
  report.WriteFile();

  if (total_divergences > 0) {
    std::fprintf(stderr,
                 "bench_resilience: %llu replies diverged from the "
                 "single-threaded goldens\n",
                 static_cast<unsigned long long>(total_divergences));
    return 1;
  }
  return 0;
}
