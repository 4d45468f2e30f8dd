// Observability-layer tests: histogram bucketing known-answers, registry
// concurrency, PhaseTimer span nesting, JSON golden output, the trace tree
// ExecutionStats writes from the spans, and the disabled-mode
// zero-allocation guarantee.
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "query/engine.h"

// Global allocation counter backing the zero-allocation test. Replacing
// operator new in this TU affects the whole binary, so the override only
// counts — behavior is unchanged.
static std::atomic<uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// Out of line, so GCC cannot inline them into a caller and pair the free with
// a visible operator new (a false -Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace paradise {
namespace {

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, BucketIndexKnownAnswers) {
  // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketBoundsKnownAnswers) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(4), 8u);
  EXPECT_EQ(Histogram::BucketUpperBound(4), 15u);
  EXPECT_EQ(Histogram::BucketLowerBound(64), uint64_t{1} << 63);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
  // Every value lands inside its own bucket's bounds.
  const uint64_t probes[] = {0, 1, 2, 100, 4096, UINT64_MAX};
  for (uint64_t v : probes) {
    const size_t i = Histogram::BucketIndex(v);
    EXPECT_GE(v, Histogram::BucketLowerBound(i)) << v;
    EXPECT_LE(v, Histogram::BucketUpperBound(i)) << v;
  }
}

TEST(HistogramTest, RecordAggregates) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  for (uint64_t v : {10ull, 20ull, 30ull, 40ull}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 100u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.Mean(), 25.0);
  // 10 → bucket 4 ([8,16)); 20, 30 → bucket 5 ([16,32)); 40 → bucket 6.
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_EQ(h.bucket_count(5), 2u);
  EXPECT_EQ(h.bucket_count(6), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentileUpperBoundClampsToObservedMax) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);
  h.Record(1000);
  // p50 falls in the [8,16) bucket → upper edge 15.
  EXPECT_EQ(h.PercentileUpperBound(0.50), 15u);
  // p99+ falls in 1000's bucket ([512,1024), edge 1023) but is clamped to
  // the observed max.
  EXPECT_EQ(h.PercentileUpperBound(1.0), 1000u);
  EXPECT_EQ(h.PercentileUpperBound(0.0), 15u);
  Histogram empty;
  EXPECT_EQ(empty.PercentileUpperBound(0.5), 0u);
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistryTest, HandlesAreStableAndNamespaced) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("x");
  EXPECT_EQ(reg.GetCounter("x"), c);
  // Same name, different kind → distinct metric.
  Gauge* g = reg.GetGauge("x");
  Histogram* h = reg.GetHistogram("x");
  EXPECT_NE(static_cast<void*>(c), static_cast<void*>(g));
  c->Increment(3);
  g->Set(-7);
  h->Record(5);
  EXPECT_EQ(reg.FindCounter("x")->value(), 3u);
  EXPECT_EQ(reg.FindGauge("x")->value(), -7);
  EXPECT_EQ(reg.FindHistogram("x")->count(), 1u);
  EXPECT_EQ(reg.FindCounter("absent"), nullptr);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(reg.CounterNames(), std::vector<std::string>{"x"});
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndRecording) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        // Mix of shared and per-thread names so registration races with
        // lookup and with recording on already-registered metrics.
        reg.GetCounter("shared")->Increment();
        reg.GetCounter("thread." + std::to_string(t))->Increment();
        reg.GetHistogram("lat")->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.FindCounter("shared")->value(),
            static_cast<uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.FindCounter("thread." + std::to_string(t))->value(),
              static_cast<uint64_t>(kIters));
  }
  EXPECT_EQ(reg.FindHistogram("lat")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistryTest, DefaultIsProcessWide) {
  Counter* a = MetricsRegistry::Default().GetCounter("metrics_test.default");
  Counter* b = MetricsRegistry::Default().GetCounter("metrics_test.default");
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, ToJsonGolden) {
  MetricsRegistry reg;
  reg.GetCounter("b.count")->Increment(2);
  reg.GetCounter("a.count")->Increment(1);
  reg.GetGauge("pool.pages")->Set(-5);
  Histogram* h = reg.GetHistogram("io.micros");
  h->Record(0);
  h->Record(3);
  h->Record(3);
  // Deterministic byte-for-byte: maps iterate sorted, histogram stats are
  // exact functions of the recorded values.
  EXPECT_EQ(reg.ToJson(),
            "{\"counters\":{\"a.count\":1,\"b.count\":2},"
            "\"gauges\":{\"pool.pages\":-5},"
            "\"histograms\":{\"io.micros\":{"
            "\"count\":3,\"sum\":6,\"min\":0,\"max\":3,\"mean\":2.000000,"
            "\"p50\":3,\"p95\":3,\"p99\":3,"
            "\"buckets\":[[0,1],[2,2]]}}}");
}

// -------------------------------------------------------------- json writer

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.BeginObject();
  w.KV("s", std::string_view("a\"b\\c\nd"));
  w.Key("arr");
  w.BeginArray();
  w.Uint(1);
  w.Int(-2);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,-2,true,null],"
            "\"nested\":{}}");
}

// ------------------------------------------------------------------- spans

TEST(PhaseTimerTest, SpansNestUnderInnermostOpen) {
  PhaseTimer t;
  const size_t plan = t.Open("plan");
  t.Close(plan);
  const size_t scan = t.Open("scan");
  const size_t chunk = t.Open("chunk");
  t.Close(chunk);
  t.Close(scan);
  const size_t emit = t.Open("emit");
  t.Close(emit);

  const std::vector<PhaseSpan>& spans = t.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "plan");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].name, "scan");
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[2].name, "chunk");
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[3].name, "emit");
  EXPECT_EQ(spans[3].parent, -1);
  for (const PhaseSpan& span : spans) EXPECT_GE(span.duration_micros, 0);
  // A child lies inside its parent, and siblings follow one another.
  EXPECT_GE(spans[2].start_micros, spans[1].start_micros);
  EXPECT_LE(spans[2].start_micros + spans[2].duration_micros,
            spans[1].start_micros + spans[1].duration_micros);
  EXPECT_GE(spans[1].start_micros,
            spans[0].start_micros + spans[0].duration_micros);
  EXPECT_EQ(t.EndMicros(), spans[3].start_micros + spans[3].duration_micros);
}

TEST(PhaseTimerTest, ScopedPhasesNestAndCopiesKeepThem) {
  PhaseTimer timer;
  {
    ScopedPhase outer(&timer, "scan");
    ScopedPhase inner(&timer, "aggregate");
  }
  { ScopedPhase again(&timer, "scan"); }
  ASSERT_EQ(timer.spans().size(), 3u);
  EXPECT_EQ(timer.spans()[1].name, "aggregate");
  EXPECT_EQ(timer.spans()[1].parent, 0);
  EXPECT_EQ(timer.spans()[2].parent, -1);
  // Same-named spans accumulate into one phase total.
  EXPECT_EQ(timer.Micros("scan"), timer.spans()[0].duration_micros +
                                      timer.spans()[2].duration_micros);
  PhaseTimer copy(timer);
  EXPECT_EQ(copy.Micros("scan"), timer.Micros("scan"));
  EXPECT_EQ(copy.phases(), timer.phases());
  ASSERT_EQ(copy.spans().size(), 3u);
  EXPECT_EQ(copy.spans()[1].parent, 0);
}

// ---------------------------------------------------- ExecutionStats schema

TEST(ExecutionStatsTest, ToJsonCarriesDocumentedSchema) {
  ExecutionStats stats;
  stats.seconds = 1.5;
  stats.aux = 42;
  stats.io.logical_reads = 10;
  stats.io.hits = 7;
  stats.io.disk_reads = 3;
  stats.io.seq_disk_reads = 2;
  stats.io.rand_disk_reads = 1;
  { ScopedPhase scan(&stats.phases, "scan"); }
  const std::string json = stats.ToJson();
  for (const char* key :
       {"\"seconds\":", "\"modeled_seconds\":", "\"aux\":42", "\"io\":",
        "\"logical_reads\":10", "\"hits\":7", "\"disk_reads\":3",
        "\"seq_disk_reads\":2", "\"rand_disk_reads\":1", "\"disk_writes\":0",
        "\"evictions\":0", "\"read_retries\":0", "\"coalesced_reads\":0",
        "\"prefetched\":0", "\"prefetch_hits\":0", "\"prefetch_wasted\":0",
        "\"phases\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"phases\":{\"scan\":" +
                      std::to_string(stats.phases.Micros("scan")) + "}"),
            std::string::npos);
  // Not traced → no trace key.
  EXPECT_EQ(json.find("\"trace\":"), std::string::npos);

  stats.traced = true;
  const std::string traced = stats.ToJson();
  EXPECT_NE(traced.find("\"trace\":{\"name\":\"query:array\""),
            std::string::npos);
}

TEST(ExecutionStatsTest, TraceJsonNestsSpansUnderEngineRoot) {
  ExecutionStats stats;
  stats.engine = EngineKind::kStarJoin;
  stats.traced = true;
  {
    ScopedPhase scan(&stats.phases, "scan");
    { ScopedPhase chunk(&stats.phases, "chunk"); }
    { ScopedPhase chunk(&stats.phases, "chunk"); }
  }
  { ScopedPhase emit(&stats.phases, "emit"); }
  const std::vector<PhaseSpan>& spans = stats.phases.spans();
  ASSERT_EQ(spans.size(), 4u);
  auto span_json = [](const PhaseSpan& s) {
    return "{\"name\":\"" + s.name + "\",\"start_micros\":" +
           std::to_string(s.start_micros) + ",\"duration_micros\":" +
           std::to_string(s.duration_micros);
  };
  const std::string tree =
      "\"trace\":{\"name\":\"query:starjoin\",\"start_micros\":0,"
      "\"duration_micros\":" + std::to_string(stats.phases.EndMicros()) +
      ",\"children\":[" + span_json(spans[0]) + ",\"children\":[" +
      span_json(spans[1]) + "}," + span_json(spans[2]) + "}]}," +
      span_json(spans[3]) + "}]}}";
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find(tree), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');
}

// ----------------------------------------------------- disabled-mode cost

TEST(DisabledModeTest, RecordingPathsDoNotAllocate) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("hot.counter");
  Gauge* g = reg.GetGauge("hot.gauge");
  Histogram* h = reg.GetHistogram("hot.histogram");
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 10000; ++i) {
    c->Increment();
    g->Add(1);
    h->Record(i);
  }
  // A null timer makes ScopedPhase a no-op — the untimed hot path.
  for (int i = 0; i < 1000; ++i) {
    ScopedPhase scope(nullptr, "not-timed");
  }
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "metric recording must never allocate";
}

}  // namespace
}  // namespace paradise
