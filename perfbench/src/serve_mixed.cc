// serve_mixed: olapd serving a seeded SQL mix with the result cache on.
//
// An in-process OlapServer over DataSet1(1000) (hX2 cardinality 10) with the
// paper's 16 MB buffer pool: the array (about 1.4 MB with kAuto) fits in the
// pool, the fact file and bitmap indexes (about 20 MB) do not, so bitmap
// queries evict. Three client connections from this process send SQL in a
// closed loop (each waits for its reply). Selections are on hX2 of 0, 3 or 4
// dimensions (star selectivity 1, 1e-3 or 1e-4), so the planner picks §4.1,
// §4.2 or the bitmap plan; groupings are hX1, hX2 or none per dimension.
// Dashboard templates are Zipf-popular and served from the cache, and a
// coarser roll-up after a probe derives from the cached answer. Every query
// is built as a ConsolidationQuery, rendered to SQL, and its reply checked
// against the star-join oracle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate.h"
#include "core/consolidate_select.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "query/engine.h"
#include "query/planner.h"
#include "query/sql.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

using namespace paradise;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kClients = 3;
// Session mix. Each client runs blocks of 15 sessions (17 queries) in a
// seeded order, so every run has exactly these shares per query:
//   2 dashboard queries (12%): cache hits, ~0.2 ms;
//   2 ad-hoc bitmap queries (12%): S = 1e-4, ~0.9 ms;
//   7 fresh scans (41%): no selection, sent with no_cache, so the §4.1
//     engine runs on the warm pool, ~25 ms;
//   4 ad-hoc probes (24%): S = 1e-3 through the §4.2 probe, ~130 ms; two of
//     them followed by a roll-up of the same selection one step coarser
//     (12%), which the cache derives, ~0.5 ms.
// Sorted by cost, the cheap classes fill the lowest 35%, the scans the next
// 41% and the probes the top 24%: p50 falls a third of the way into the
// scans and p90 in the middle of the probes, far from any class boundary,
// and sub-millisecond hiccups of the cheap classes cannot move either.
enum Session { kDashboardSession = 0, kBitmapSession, kScanSession,
               kProbeSession, kProbePairSession };
constexpr int kBlock[5] = {2, 2, 7, 2, 2};  // sessions of each kind
constexpr double kZipfExponent = 1.0;

enum Kind { kDashboard = 0, kAdhocBitmap, kFreshScan, kProbeFine,
            kProbeCoarse };
const char* const kKindNames[5] = {"dashboard", "adhoc-bitmap", "fresh-scan",
                                   "probe", "probe-rollup"};

std::string ToSql(const query::ConsolidationQuery& q) {
  std::string select = "SELECT sum(volume)", from = " FROM fact", where,
              group;
  for (size_t d = 0; d < q.dims.size(); ++d) {
    const query::DimensionQuery& dq = q.dims[d];
    if (!dq.group_by_col.has_value() && dq.selections.empty()) continue;
    const std::string dim = "dim" + std::to_string(d);
    from += ", " + dim;
    where += std::string(where.empty() ? " WHERE " : " AND ") + "fact.d" +
             std::to_string(d) + " = " + dim + ".d" + std::to_string(d);
    for (const query::Selection& s : dq.selections) {
      where += " AND " + dim + ".h" + std::to_string(d) +
               std::to_string(s.attr_col) + " = '" +
               query::LiteralToString(s.values[0]) + "'";
    }
    if (dq.group_by_col.has_value()) {
      const std::string col =
          dim + ".h" + std::to_string(d) + std::to_string(*dq.group_by_col);
      select += ", " + col;
      group += std::string(group.empty() ? " GROUP BY " : ", ") + col;
    }
  }
  return select + from + where + group;
}

size_t GroupedDims(const query::ConsolidationQuery& q) {
  size_t n = 0;
  for (const auto& dq : q.dims) n += dq.group_by_col.has_value();
  return n;
}

// Dashboard catalog: every no-selection grouping with at most two grouped
// dimensions (results of at most 100 rows), in seeded popularity order.
std::vector<query::ConsolidationQuery> DashboardCatalog(Random* rng) {
  std::vector<query::ConsolidationQuery> catalog;
  for (int code = 0; code < 81; ++code) {
    query::ConsolidationQuery q;
    q.dims.resize(4);
    int rest = code;
    for (auto& dq : q.dims) {
      if (rest % 3 < 2) dq.group_by_col = static_cast<size_t>(rest % 3 + 1);
      rest /= 3;
    }
    if (GroupedDims(q) <= 2) catalog.push_back(std::move(q));
  }
  for (size_t i = catalog.size(); i > 1; --i) {
    std::swap(catalog[i - 1], catalog[rng->Uniform(i)]);
  }
  return catalog;
}

// An ad-hoc query selecting one random hX2 value on `selected` random
// dimensions (star selectivity 10^-selected), with a random grouping that
// groups at least one dimension.
query::ConsolidationQuery AdhocSelection(Random* rng, size_t selected) {
  query::ConsolidationQuery q;
  do {
    q = RandomRollup(rng);
  } while (GroupedDims(q) == 0);
  std::vector<size_t> dims = {0, 1, 2, 3};
  for (size_t i = 0; i < selected; ++i) {
    std::swap(dims[i], dims[i + rng->Uniform(4 - i)]);
    const size_t d = dims[i];
    const auto code = static_cast<uint32_t>(rng->Uniform(10));
    q.dims[d].selections.push_back(
        query::Selection{2, {query::Literal{gen::AttrValue(d, 2, code)}}});
  }
  return q;
}

// The same query one step coarser on one grouped dimension: hX1 to hX2 or
// collapsed, hX2 to collapsed.
query::ConsolidationQuery Coarser(query::ConsolidationQuery q, Random* rng) {
  std::vector<size_t> grouped;
  for (size_t d = 0; d < q.dims.size(); ++d) {
    if (q.dims[d].group_by_col.has_value()) grouped.push_back(d);
  }
  auto& col = q.dims[grouped[rng->Uniform(grouped.size())]].group_by_col;
  if (*col == 1 && rng->Bernoulli(0.5)) {
    col = 2;
  } else {
    col.reset();
  }
  return q;
}

// Inverse-CDF sampler over popularity ranks.
class Zipf {
 public:
  Zipf(size_t n, double exponent) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Random* rng) const {
    const double u = rng->NextDouble();
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin()) % cdf_.size();
  }

 private:
  std::vector<double> cdf_;
};

// First number after "\"key\":" in a stats JSON document; 0 when absent.
double JsonNumber(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::string CacheOutcome(const std::string& json) {
  const std::string needle = "\"outcome\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "off";
  const size_t from = at + needle.size();
  return json.substr(from, json.find('"', from) - from);
}

// The plan the server ran or would have run (cache hits keep their plan).
enum PlanClass { kFullScan = 0, kProbe = 1, kBitmapPlan = 2 };

struct Sample {
  Span span;
  double latency_ms = 0;  // raw
  double server_ms = 0;
  double modeled_ms = 0;
  int plan = kFullScan;
  int kind = kDashboard;
  std::string outcome;
  double cache_lookup_us = 0;
  double chunks_read = 0;
  // Traced run: client-side replays of the layers' public functions.
  double compile_us = 0, plan_us = 0, selection_plan_us = 0, codec_us = 0;
  query::ConsolidationQuery q;  // kept for §4.2 engine runs only
};

struct ClientResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// One closed-loop client: draws sessions, sends each query, waits for the
// reply, checks the answer against the oracle and records a sample.
class Client {
 public:
  Client(const Args& args, SpeedProbe* speed, Database* db,
         const Oracle* oracle,
         const std::vector<query::ConsolidationQuery>* dashboard,
         const std::vector<query::GroupedResult>* dashboard_expected,
         ClientResult* out)
      : args_(args),
        speed_(speed),
        db_(db),
        oracle_(oracle),
        dashboard_(dashboard),
        dashboard_expected_(dashboard_expected),
        out_(out) {}

  bool Connect(uint16_t port) {
    Result<std::unique_ptr<server::OlapClient>> c =
        server::OlapClient::Connect("127.0.0.1", port);
    if (!c.ok()) {
      out_->failures.push_back("connect: " + c.status().ToString());
      return false;
    }
    client_ = std::move(c).value();
    return true;
  }

  // Runs session blocks until `end` or until the connection breaks.
  void Loop(size_t id, double end, const Zipf& zipf) {
    Random rng(args_.seed * 7919 + id * 104729 + 3);
    std::vector<int> block;
    for (int kind = 0; kind < 5; ++kind) block.insert(block.end(), kBlock[kind], kind);
    size_t next = block.size();
    while (Now() < end) {
      if (next == block.size()) {
        for (size_t i = block.size(); i > 1; --i) {
          std::swap(block[i - 1], block[rng.Uniform(i)]);
        }
        next = 0;
      }
      const int session = block[next++];
      bool alive = true;
      if (session == kDashboardSession) {
        const size_t i = zipf.Draw(&rng);
        alive = Run((*dashboard_)[i], kDashboard, &(*dashboard_expected_)[i]);
      } else if (session == kBitmapSession) {
        alive = Run(AdhocSelection(&rng, 4), kAdhocBitmap, nullptr);
      } else if (session == kScanSession) {
        alive = Run(RandomRollup(&rng), kFreshScan, nullptr);
      } else {
        const query::ConsolidationQuery fine = AdhocSelection(&rng, 3);
        alive = Run(fine, kProbeFine, nullptr);
        if (alive && session == kProbePairSession) {
          alive = Run(Coarser(fine, &rng), kProbeCoarse, nullptr);
        }
      }
      if (!alive) return;
    }
  }

  // Sends one query; `expected` may be null (then the oracle computes it).
  // Returns false when the connection is gone.
  bool Run(const query::ConsolidationQuery& q, int kind,
           const query::GroupedResult* expected, bool record = true) {
    server::QueryRequest request;
    request.sql = ToSql(q);
    request.trace = args_.trace;
    request.no_cache = kind == kFreshScan;
    if (record) ++out_->attempted;
    // Probe the CPU speed on this thread at most every 20 ms: a probe per
    // query would double the cost of a cache hit.
    if (Now() - last_probe_ > 0.02) {
      speed_->Probe();
      last_probe_ = Now();
    }
    const double t0 = Now();
    Result<server::OlapClient::Reply> reply = client_->Query(request);
    const double t1 = Now();
    if (!reply.ok() || !reply->ok) {
      ++out_->failed;
      out_->failures.push_back(
          "query failed: " +
          (reply.ok() ? server::ErrorReplyToStatus(reply->error).ToString()
                      : reply.status().ToString()));
      return reply.ok();
    }
    const bool right = expected != nullptr
                           ? reply->result.result.SameAs(*expected)
                           : oracle_->Matches(q, reply->result.result);
    if (!right) {
      ++out_->failed;
      out_->failures.push_back("wrong answer for: " + request.sql);
      return true;
    }
    if (!record) return true;
    Sample s;
    s.span = Span{t0, t1};
    s.latency_ms = (t1 - t0) * 1e3;
    const std::string& stats = reply->result.stats_json;
    s.server_ms = JsonNumber(stats, "seconds") * 1e3;
    s.modeled_ms = JsonNumber(stats, "modeled_seconds") * 1e3;
    s.outcome = CacheOutcome(stats);
    s.plan = reply->result.engine == "bitmap" ? kBitmapPlan
             : q.HasSelection()               ? kProbe
                                              : kFullScan;
    s.kind = kind;
    s.cache_lookup_us = JsonNumber(stats, "cache-lookup");
    s.chunks_read = JsonNumber(stats, "aux");
    if (s.plan == kProbe && s.outcome == "miss") s.q = q;  // engine ran
    if (args_.trace) Replay(request.sql, reply->result, &s);
    out_->samples.push_back(std::move(s));
    return true;
  }

 private:
  // Times the client-side replays of compile, plan, selection plan and the
  // reply codec for the traced run.
  void Replay(const std::string& sql, const server::ResultReply& reply,
              Sample* s) {
    const double c0 = Now();
    const query::ConsolidationQuery q =
        Must(query::CompileSql(sql, db_->schema()), "CompileSql");
    const double c1 = Now();
    const PlanChoice plan = Must(ChoosePlan(*db_, q), "ChoosePlan");
    const double c2 = Now();
    s->compile_us = (c1 - c0) * 1e6;
    s->plan_us = (c2 - c1) * 1e6;
    if (plan.engine == EngineKind::kArray && q.HasSelection()) {
      const double p0 = Now();
      const GroupSpec spec = Must(GroupSpec::Make(*db_->olap(), q), "GroupSpec");
      Must(select_detail::MakeSelectionPlan(*db_->olap(), q, spec),
           "MakeSelectionPlan");
      s->selection_plan_us = (Now() - p0) * 1e6;
    }
    const double e0 = Now();
    const std::string bytes = server::EncodeResultReply(reply);
    Must(server::DecodeResultReply(bytes), "DecodeResultReply");
    s->codec_us = (Now() - e0) * 1e6;
  }

  const Args& args_;
  SpeedProbe* speed_;
  double last_probe_ = 0;
  Database* db_;
  const Oracle* oracle_;
  const std::vector<query::ConsolidationQuery>* dashboard_;
  const std::vector<query::GroupedResult>* dashboard_expected_;
  ClientResult* out_;
  std::unique_ptr<server::OlapClient> client_;
};

}  // namespace

void RunServeMixed(const Args& args, Report* out) {
  Report& report = *out;
  SpeedProbe speed;
  std::vector<Cube> cubes(1);
  cubes[0].name = "d1000";
  cubes[0].config = gen::DataSet1(1000, 10, args.seed);
  const SetupTimes setup = BuildCubes(args, &speed, &cubes, BenchOptions(args.trace),
                                      args.trace ? 1 : 5, args.trace);
  Database* db = cubes[0].db.get();
  const Oracle oracle = Oracle::FromStarJoin(db);
  Random catalog_rng(args.seed * 0x2545F4914F6CDD1DULL + 11);
  const std::vector<query::ConsolidationQuery> dashboard =
      DashboardCatalog(&catalog_rng);
  std::vector<query::GroupedResult> dashboard_expected;
  for (const auto& q : dashboard) dashboard_expected.push_back(oracle.Expect(q));
  const Zipf zipf(dashboard.size(), kZipfExponent);

  server::ServerOptions options;
  options.metrics_enabled = args.trace;
  server::OlapServer olapd(db, options);
  Check(olapd.Start(), "starting the server");

  std::vector<ClientResult> results(kClients);
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(args, &speed, db, &oracle,
                                               &dashboard,
                                               &dashboard_expected, &results[c]));
    if (!clients.back()->Connect(olapd.port())) Die("cannot connect to olapd");
  }
  // Warm-up outside the measurement: every dashboard query once (the
  // dashboards are then served from the cache), and a few ad-hoc probe and
  // bitmap queries so the pool holds the array and the hot index pages.
  {
    Random warm_rng(args.seed + 5);
    for (size_t i = 0; i < dashboard.size(); ++i) {
      clients[0]->Run(dashboard[i], kDashboard, &dashboard_expected[i], false);
    }
    for (int i = 0; i < 6; ++i) {
      clients[0]->Run(AdhocSelection(&warm_rng, 3), kProbeFine, nullptr, false);
      clients[0]->Run(AdhocSelection(&warm_rng, 4), kAdhocBitmap, nullptr, false);
    }
  }

  const BufferPoolStats pool_before = db->storage()->pool()->stats();
  std::atomic<bool> sampling{true};
  std::vector<double> queue_samples, inflight_samples;
  std::thread sampler([&] {
    while (sampling.load()) {
      const server::AdmissionController::Snapshot snap =
          olapd.admission().snapshot();
      queue_samples.push_back(static_cast<double>(snap.queued));
      inflight_samples.push_back(static_cast<double>(snap.inflight));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const double start = Now();
  const double end = start + args.seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { clients[c]->Loop(c, end, zipf); });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = Now() - start;
  sampling.store(false);
  sampler.join();
  const BufferPoolStats pool = db->storage()->pool()->stats().Delta(pool_before);
  clients.clear();
  olapd.Stop();

  std::vector<Sample> samples;
  std::vector<std::vector<Span>> callers(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ClientResult& r = results[c];
    report.Attempt(r.attempted);
    report.Failed(r.failed);
    for (const std::string& f : r.failures) report.Fail(f);
    for (Sample& s : r.samples) {
      callers[c].push_back(s.span);
      samples.push_back(std::move(s));
    }
  }
  if (samples.empty()) {
    report.Fail("no query completed");
    return;
  }
  const double n = static_cast<double>(samples.size());
  std::vector<Span> spans;
  std::vector<double> raw, modeled;
  double hits = 0, derived = 0, plan_count[3] = {0, 0, 0};
  std::vector<double> kind_latency[5];
  for (const Sample& s : samples) {
    spans.push_back(s.span);
    raw.push_back(s.latency_ms);
    modeled.push_back(s.modeled_ms);
    hits += s.outcome == "hit";
    derived += s.outcome == "derived";
    plan_count[s.plan] += 1;
    kind_latency[s.kind].push_back(s.latency_ms);
  }
  const std::vector<double> latency = NormalizedMs(speed, spans);
  const double slowdown = speed.Slowdown(start, start + elapsed);
  char line[512];
  std::snprintf(line, sizeof(line),
                "%zu samples from %zu clients, p50 %.3f ms, p90 %.3f ms (raw "
                "%.3f, %.3f); cpu slowdown %.4f; raw qps %.3f, share of the "
                "loop inside Query %.4f; %s",
                samples.size(), kClients, Percentile(latency, 0.5),
                Percentile(latency, 0.9), Percentile(raw, 0.5),
                Percentile(raw, 0.9), slowdown, ClosedLoopQps(nullptr, callers),
                BusyShare(callers, elapsed), setup.RawSummary().c_str());
  report.Note(line);
  std::snprintf(line, sizeof(line),
                "shares: cache_hit=%.4f cache_derived=%.4f plan_4.1=%.4f "
                "plan_4.2=%.4f bitmap=%.4f overlay=0",
                hits / n, derived / n, plan_count[kFullScan] / n,
                plan_count[kProbe] / n, plan_count[kBitmapPlan] / n);
  report.Note(line);
  for (int k = 0; k < 5; ++k) {
    const std::vector<double>& v = kind_latency[k];
    std::snprintf(line, sizeof(line),
                  "class %s: %zu samples (%.4f), raw p50 %.3f ms, raw p90 %.3f ms",
                  kKindNames[k], v.size(), static_cast<double>(v.size()) / n,
                  Percentile(v, 0.5), Percentile(v, 0.9));
    report.Note(line);
  }
  report.Note("modeled io " + std::to_string(Mean(modeled)) +
              " ms/query; error_rate=" +
              std::to_string(static_cast<double>(report.failed()) /
                             static_cast<double>(report.attempted())));

  const Footprint fp = MeasureFootprint({&cubes[0]}, {cubes[0].config.num_valid_cells});
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
  ReportSetupLayers(setup, &report);
  report.Metric("storage.disk_reads_per_query", pool.disk_reads / n, "count");
  report.Metric("bench.cpu_slowdown", slowdown, "ratio");
  report.Metric("storage.rand_read_frac",
                ratio(static_cast<double>(pool.rand_disk_reads),
                      static_cast<double>(pool.disk_reads)),
                "ratio");
  report.Metric("storage.pool_hit_rate",
                ratio(static_cast<double>(pool.hits),
                      static_cast<double>(pool.logical_reads)),
                "ratio");
  report.Metric("storage.evictions_per_query", pool.evictions / n, "count");
  report.Metric("storage.modeled_io_ms", Mean(modeled), "ms");
  report.Metric("array.bytes_per_cell", fp.array_bytes_per_cell, "B");

  std::vector<double> compile, plan, selection_plan, codec, lookup, overhead,
      engine, bitmap_ms, chunks;
  std::vector<const query::ConsolidationQuery*> probes;  // §4.2 engine runs
  for (const Sample& s : samples) {
    compile.push_back(s.compile_us);
    plan.push_back(s.plan_us);
    codec.push_back(s.codec_us);
    overhead.push_back(s.latency_ms * 1e3 - s.server_ms * 1e3);
    engine.push_back(s.server_ms);
    if (s.outcome != "off") lookup.push_back(s.cache_lookup_us);
    if (s.plan == kProbe) selection_plan.push_back(s.selection_plan_us);
    if (s.outcome != "miss" && s.outcome != "off") continue;  // from cache
    if (s.plan == kBitmapPlan) bitmap_ms.push_back(s.server_ms);
    if (s.plan != kBitmapPlan) chunks.push_back(s.chunks_read);
    if (s.plan == kProbe) probes.push_back(&s.q);
  }
  report.Metric("array.chunks_read_per_query", Mean(chunks), "count");
  report.Metric("query.compile_us", Mean(compile), "us");
  report.Metric("query.plan_us", Mean(plan), "us");
  report.Metric("core.selection_plan_us", Mean(selection_plan), "us");
  report.Metric("server.codec_us", Mean(codec), "us");
  report.Metric("query.cache_lookup_us", Mean(lookup), "us");
  report.Metric("query.cache_hit_rate", hits / n, "ratio");
  report.Metric("query.cache_derived_rate", derived / n, "ratio");
  report.Metric("query.engine_ms", Mean(engine), "ms");
  report.Metric("server.overhead_us", Median(overhead), "us");
  report.Metric("server.queue_depth", Mean(queue_samples), "count");
  report.Note("server.inflight mean " + std::to_string(Mean(inflight_samples)));
  report.Metric("relational.bitmap_share", plan_count[kBitmapPlan] / n, "ratio");
  report.Metric("relational.bitmap_query_ms", Mean(bitmap_ms), "ms");

  // §4.2 useful-to-attempted ratio: the first 8 probe queries the engine
  // ran, re-run through the serial selection algorithm for its counters.
  ArraySelectStats select_stats;
  for (size_t i = 0; i < probes.size() && i < 8; ++i) {
    Must(ArrayConsolidateWithSelection(*db->olap(), *probes[i], nullptr,
                                       &select_stats),
         "ArrayConsolidateWithSelection");
  }
  report.Metric("core.probe_hit_rate",
                ratio(static_cast<double>(select_stats.hits),
                      static_cast<double>(select_stats.candidates)),
                "ratio");
}

}  // namespace perfbench
