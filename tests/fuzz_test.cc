// Randomized end-to-end fuzzing: for each seed, generate a random star
// schema (dimension count, sizes, cardinalities, chunk extents that need
// not divide the sizes, density) and a random query (grouping levels,
// selections with random value lists), then assert that every applicable
// engine matches the brute-force reference exactly.
//
// Reproducing a failure: every test logs its effective seed; re-run the
// whole binary with `--rng-seed=<seed>` (or PARADISE_FUZZ_SEED=<seed>) to
// pin every instance to that one seed regardless of which gtest parameter
// it runs under.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <thread>

#include "common/cancellation.h"
#include "common/random.h"
#include "query/engine.h"
#include "query/result_cache.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/fault_injection.h"
#include "test_util.h"

namespace paradise {
namespace {

using paradise::testing::BruteForce;
using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;

/// Set by --rng-seed / PARADISE_FUZZ_SEED in main(); overrides every
/// parameterized instance's seed for reproduction runs.
std::optional<uint64_t> g_seed_override;

uint64_t EffectiveSeed(uint64_t param) {
  return g_seed_override.value_or(param);
}

std::string SeedTrace(uint64_t seed) {
  return "fuzz seed " + std::to_string(seed) + " (reproduce with --rng-seed=" +
         std::to_string(seed) + " or PARADISE_FUZZ_SEED=" +
         std::to_string(seed) + ")";
}

gen::GenConfig RandomConfig(Random* rng) {
  gen::GenConfig config;
  const size_t n = 2 + rng->Uniform(3);  // 2..4 dimensions
  config.dims.resize(n);
  uint64_t total = 1;
  for (size_t d = 0; d < n; ++d) {
    config.dims[d].name = "dim" + std::to_string(d);
    config.dims[d].size = static_cast<uint32_t>(3 + rng->Uniform(14));
    const uint32_t c1 =
        static_cast<uint32_t>(1 + rng->Uniform(config.dims[d].size));
    const uint32_t c2 = static_cast<uint32_t>(1 + rng->Uniform(c1));
    config.dims[d].level_cardinalities = {c1, c2};
    config.chunk_extents.push_back(
        static_cast<uint32_t>(1 + rng->Uniform(config.dims[d].size + 2)));
    total *= config.dims[d].size;
  }
  // Density from near-empty to full.
  config.num_valid_cells = 1 + rng->Uniform(total);
  config.seed = rng->Next();
  return config;
}

query::ConsolidationQuery RandomQuery(const gen::GenConfig& config,
                                      Random* rng) {
  query::ConsolidationQuery q;
  q.dims.resize(config.dims.size());
  for (size_t d = 0; d < config.dims.size(); ++d) {
    if (rng->Bernoulli(0.6)) {
      q.dims[d].group_by_col = 1 + rng->Uniform(2);
    }
    const uint64_t num_selections = rng->Uniform(3);  // 0..2 per dimension
    for (uint64_t s = 0; s < num_selections; ++s) {
      const size_t attr = 1 + rng->Uniform(2);
      const uint32_t card = config.dims[d].level_cardinalities[attr - 1];
      query::Selection sel;
      sel.attr_col = attr;
      const uint64_t num_values = 1 + rng->Uniform(3);
      for (uint64_t v = 0; v < num_values; ++v) {
        // Occasionally select a value that does not exist.
        if (rng->Bernoulli(0.1)) {
          sel.values.push_back(query::Literal{std::string("MISSING")});
        } else {
          sel.values.push_back(query::Literal{gen::AttrValue(
              d, attr, static_cast<uint32_t>(rng->Uniform(card)))});
        }
      }
      q.dims[d].selections.push_back(std::move(sel));
    }
  }
  switch (rng->Uniform(5)) {
    case 0:
      q.agg = query::AggFunc::kSum;
      break;
    case 1:
      q.agg = query::AggFunc::kCount;
      break;
    case 2:
      q.agg = query::AggFunc::kMin;
      break;
    case 3:
      q.agg = query::AggFunc::kMax;
      break;
    default:
      q.agg = query::AggFunc::kAvg;
  }
  return q;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, AllEnginesMatchBruteForceOnRandomWorkloads) {
  const uint64_t seed = EffectiveSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Random rng(seed);
  TempFile file("fuzz" + std::to_string(GetParam()));
  const gen::GenConfig config = RandomConfig(&rng);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  // Exercise every chunk format across seeds.
  const ChunkFormat formats[] = {
      ChunkFormat::kOffsetCompressed, ChunkFormat::kDense, ChunkFormat::kAuto,
      ChunkFormat::kLzwDense};
  options.array.chunk_format = formats[GetParam() % 4];
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));

  for (int round = 0; round < 4; ++round) {
    const query::ConsolidationQuery q = RandomQuery(config, &rng);
    const query::GroupedResult expected = BruteForce(data, q);
    std::vector<EngineKind> engines = {EngineKind::kArray,
                                       EngineKind::kStarJoin,
                                       EngineKind::kLeftDeep};
    if (q.HasSelection()) {
      engines.push_back(EngineKind::kBitmap);
      engines.push_back(EngineKind::kBTreeSelect);
    }
    RunQueryOptions run;
    run.cold = round == 0;
    for (EngineKind kind : engines) {
      ASSERT_OK_AND_ASSIGN(Execution exec, RunQuery(db.get(), kind, q, run));
      ASSERT_TRUE(exec.result.SameAs(expected))
          << "seed " << seed << " round " << round << " engine "
          << EngineKindToString(kind) << "\ngot:\n"
          << exec.result.ToString(q.agg) << "expected:\n"
          << expected.ToString(q.agg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}));

/// Fault-fuzzing mode: the same randomized schemas and queries, but with a
/// FaultInjectingDiskManager armed with random probabilistic read faults and
/// on-disk bit flips. The differential invariant is weaker and absolute:
/// every engine either reproduces the brute-force result exactly, or returns
/// a non-OK Status (kIOError / kCorruption) with a message — never a crash
/// and never a silently wrong answer.
class FaultFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultFuzzTest, ResultMatchesBruteForceOrStatusIsNonOk) {
  const uint64_t seed = EffectiveSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Random rng(seed * 7919 + 13);
  TempFile file("faultfuzz" + std::to_string(GetParam()));
  const gen::GenConfig config = RandomConfig(&rng);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  options.storage.read_retry_limit = rng.Uniform(4);  // 0..3
  options.storage.read_retry_backoff_micros = 0;
  FaultInjectingDiskManager* faults = nullptr;
  options.storage.wrap_disk = [&faults](std::unique_ptr<Disk> inner) {
    auto wrapped =
        std::make_unique<FaultInjectingDiskManager>(std::move(inner));
    faults = wrapped.get();
    return std::unique_ptr<Disk>(std::move(wrapped));
  };
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));
  ASSERT_NE(faults, nullptr);

  // Arm faults only after the fault-free load.
  FaultInjectionOptions fi;
  fi.seed = rng.Next();
  fi.read_error_probability = 0.01 * static_cast<double>(rng.Uniform(4));
  fi.read_bit_flip_probability =
      0.002 * static_cast<double>(rng.Uniform(3));
  fi.max_injected_faults = 1 + rng.Uniform(5);
  faults->Arm(fi);

  for (int round = 0; round < 3; ++round) {
    const query::ConsolidationQuery q = RandomQuery(config, &rng);
    const query::GroupedResult expected = BruteForce(data, q);
    std::vector<EngineKind> engines = {EngineKind::kArray,
                                       EngineKind::kStarJoin,
                                       EngineKind::kLeftDeep};
    if (q.HasSelection()) {
      engines.push_back(EngineKind::kBitmap);
      engines.push_back(EngineKind::kBTreeSelect);
    }
    for (EngineKind kind : engines) {
      auto r = RunQuery(db.get(), kind, q);
      if (r.ok()) {
        ASSERT_TRUE(r.value().result.SameAs(expected))
            << "seed " << seed << " round " << round << " engine "
            << EngineKindToString(kind)
            << " silently diverged under faults\ngot:\n"
            << r.value().result.ToString(q.agg) << "expected:\n"
            << expected.ToString(q.agg);
      } else {
        const Status st = r.status();
        EXPECT_TRUE(st.IsIOError() || st.IsCorruption()) << st.ToString();
        EXPECT_FALSE(st.ToString().empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

/// Cached-mode fuzzing: the same random query sequences run uncached and
/// through a shared ConsolidationResultCache, asserting bit-identical
/// results on every engine — misses, exact hits, roll-up derivations, and
/// epoch invalidation across a mid-sequence reload all included.
///
/// Random hierarchies are rarely functional (a level-1 block usually
/// straddles level-2 blocks), so to actually exercise the derivation path
/// about half the dimensions are re-dealt with divisibility-aligned
/// hierarchies where level-1 blocks nest exactly into level-2 blocks.
gen::GenConfig CachedRandomConfig(Random* rng) {
  gen::GenConfig config = RandomConfig(rng);
  uint64_t total = 1;
  for (size_t d = 0; d < config.dims.size(); ++d) {
    if (rng->Bernoulli(0.5)) {
      const uint32_t size = 4u * static_cast<uint32_t>(1 + rng->Uniform(3));
      config.dims[d].size = size;
      config.dims[d].level_cardinalities = {size / 2, size / 4};
      config.chunk_extents[d] =
          static_cast<uint32_t>(1 + rng->Uniform(size + 2));
    }
    total *= config.dims[d].size;
  }
  config.num_valid_cells = 1 + rng->Uniform(total);
  return config;
}

class CachedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CachedFuzzTest, CachedAndUncachedRunsAreBitIdentical) {
  const uint64_t seed = EffectiveSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Random rng(seed * 104729 + 17);
  TempFile file("cachedfuzz" + std::to_string(GetParam()));
  const gen::GenConfig config = CachedRandomConfig(&rng);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions options = SmallDbOptions();
  options.build_btree_join_indexes = true;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       BuildDatabaseFromDataset(file.path(), data, options));

  query::ConsolidationResultCache::Options cache_opts;
  cache_opts.derive_row_cost = 0;  // derive whenever structurally possible
  query::ConsolidationResultCache cache(cache_opts);
  RunQueryOptions cached;
  cached.cold = false;
  cached.cache = &cache;
  RunQueryOptions uncached;
  uncached.cold = false;

  for (int round = 0; round < 4; ++round) {
    const query::ConsolidationQuery q = RandomQuery(config, &rng);
    const query::GroupedResult expected = BruteForce(data, q);
    std::vector<EngineKind> engines = {EngineKind::kArray,
                                       EngineKind::kStarJoin,
                                       EngineKind::kLeftDeep};
    if (q.HasSelection()) {
      engines.push_back(EngineKind::kBitmap);
      engines.push_back(EngineKind::kBTreeSelect);
    }
    for (EngineKind kind : engines) {
      ASSERT_OK_AND_ASSIGN(Execution plain,
                           RunQuery(db.get(), kind, q, uncached));
      ASSERT_TRUE(plain.result.SameAs(expected))
          << "uncached, seed " << seed << " round " << round << " engine "
          << EngineKindToString(kind);
      ASSERT_OK_AND_ASSIGN(Execution first, RunQuery(db.get(), kind, q, cached));
      ASSERT_TRUE(first.result.SameAs(expected))
          << "cached (" << CacheOutcomeToString(first.stats.cache_outcome)
          << "), seed " << seed << " round " << round << " engine "
          << EngineKindToString(kind);
      ASSERT_OK_AND_ASSIGN(Execution again, RunQuery(db.get(), kind, q, cached));
      EXPECT_EQ(again.stats.cache_outcome, CacheOutcome::kHit);
      ASSERT_TRUE(again.result.SameAs(expected));
    }

    // Coarser follow-up: every level-1 grouping rolled up to level 2. On
    // dimensions with aligned hierarchies this derives from the entry the
    // loop above just cached; on the others it falls back to a scan. Either
    // way it must match brute force and the uncached engine exactly.
    query::ConsolidationQuery coarse = q;
    bool coarsened = false;
    for (query::DimensionQuery& dq : coarse.dims) {
      if (dq.group_by_col == 1u) {
        dq.group_by_col = 2;
        coarsened = true;
      }
    }
    if (coarsened) {
      const query::GroupedResult coarse_expected = BruteForce(data, coarse);
      ASSERT_OK_AND_ASSIGN(
          Execution derived,
          RunQuery(db.get(), EngineKind::kArray, coarse, cached));
      ASSERT_TRUE(derived.result.SameAs(coarse_expected))
          << "coarse cached ("
          << CacheOutcomeToString(derived.stats.cache_outcome) << "), seed "
          << seed << " round " << round;
      ASSERT_OK_AND_ASSIGN(
          Execution plain,
          RunQuery(db.get(), EngineKind::kArray, coarse, uncached));
      ASSERT_TRUE(plain.result.SameAs(coarse_expected));
    }

    if (round == 1) {
      // Mid-sequence reload with epoch churn: set a catalog root no reader
      // uses (dirties the catalog, changes no cell, so the relational
      // engines later rounds run stay servable), then close and reopen —
      // the close commits, the manifest epoch advances, and every cached
      // entry must be invalidated, not served.
      const uint64_t epoch_before = db->commit_epoch();
      ASSERT_OK(db->storage()->SetRoot("test.epoch_churn", 1));
      db.reset();
      ASSERT_OK_AND_ASSIGN(db, Database::Open(file.path(), options));
      ASSERT_GT(db->commit_epoch(), epoch_before)
          << "dirtying the catalog + close should advance the commit epoch";
      ASSERT_OK_AND_ASSIGN(Execution after,
                           RunQuery(db.get(), EngineKind::kArray, q, cached));
      EXPECT_EQ(after.stats.cache_outcome, CacheOutcome::kMiss)
          << "stale pre-reload entry served after epoch churn";
      ASSERT_TRUE(after.result.SameAs(expected));
      EXPECT_GT(cache.stats().invalidations, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

/// Cancellation fuzzing (DESIGN.md choice 13): random workloads run under
/// CancellationTokens fired before, during and never, on every engine that
/// accepts the query. The invariant is all-or-nothing: a query either
/// completes with the exact brute-force result or fails with the token's
/// typed Status — and a cancelled query retried on a fresh token reproduces
/// the brute-force result bit for bit (no torn state survives the abandoned
/// run).
class CancelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CancelFuzzTest, CancelledQueriesAreAllOrNothingAndRetryable) {
  const uint64_t seed = EffectiveSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Random rng(seed * 15485863 + 29);
  TempFile file("cancelfuzz" + std::to_string(GetParam()));
  const gen::GenConfig config = RandomConfig(&rng);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));
  DatabaseOptions db_options = SmallDbOptions();
  db_options.build_btree_join_indexes = true;
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<Database> db,
      BuildDatabaseFromDataset(file.path(), data, db_options));

  for (int round = 0; round < 3; ++round) {
    const query::ConsolidationQuery q = RandomQuery(config, &rng);
    const query::GroupedResult expected = BruteForce(data, q);
    const size_t threads = 1 + rng.Uniform(4);
    for (EngineKind kind :
         {EngineKind::kArray, EngineKind::kStarJoin, EngineKind::kBitmap,
          EngineKind::kLeftDeep, EngineKind::kBTreeSelect}) {
      if (!CheckEngineAccepts(*db, kind, q).ok()) continue;
      SCOPED_TRACE(std::string(EngineKindToString(kind)));

      // Pre-fired tokens short-circuit before touching storage.
      {
        CancellationToken cancelled;
        cancelled.RequestCancel();
        RunQueryOptions options;
        options.cold = false;
        options.num_threads = threads;
        options.cancel = &cancelled;
        auto r = RunQuery(db.get(), kind, q, options);
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
      }
      {
        CancellationToken expired;
        expired.set_deadline(std::chrono::steady_clock::now() -
                             std::chrono::milliseconds(1));
        RunQueryOptions options;
        options.cold = false;
        options.num_threads = threads;
        options.cancel = &expired;
        auto r = RunQuery(db.get(), kind, q, options);
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
      }

      // Mid-run cancel racing real execution: either the query won (exact
      // result) or the token won (typed status) — nothing in between.
      {
        CancellationToken token;
        std::thread canceller([&token, delay_us = rng.Uniform(500)] {
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
          token.RequestCancel();
        });
        RunQueryOptions options;
        options.cold = false;
        options.num_threads = threads;
        options.cancel = &token;
        auto r = RunQuery(db.get(), kind, q, options);
        canceller.join();
        if (r.ok()) {
          ASSERT_TRUE(r.value().result.SameAs(expected))
              << "query that outran its cancel diverged, seed " << seed;
        } else {
          EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
        }
        // The retry on a clean token must see no trace of the abandoned run.
        RunQueryOptions clean;
        clean.cold = false;
        clean.num_threads = threads;
        ASSERT_OK_AND_ASSIGN(Execution retried,
                             RunQuery(db.get(), kind, q, clean));
        ASSERT_TRUE(retried.result.SameAs(expected))
            << "retry after cancel diverged, seed " << seed << " round "
            << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CancelFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

/// Codec sweep: the chunk codec must be invisible to every query path.
/// Each random cube is materialized once per ChunkFormat (forced via
/// PARADISE_FORCE_CHUNK_FORMAT, the same knob the CI codec matrix uses),
/// and the identical workload — serial, 4-thread parallel,
/// cached, and over-the-wire through OlapServer — must produce results
/// bit-identical to the kOffsetCompressed baseline build.
class CodecSweepFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecSweepFuzzTest, QueryResultsAreBitIdenticalAcrossChunkFormats) {
  const uint64_t seed = EffectiveSeed(GetParam());
  SCOPED_TRACE(SeedTrace(seed));
  Random rng(seed * 2654435761ull + 41);
  const gen::GenConfig config = RandomConfig(&rng);
  ASSERT_OK_AND_ASSIGN(gen::SyntheticDataset data, gen::Generate(config));

  // Frozen workload: every format executes exactly these queries.
  std::vector<query::ConsolidationQuery> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomQuery(config, &rng));
  const std::vector<std::string> sql = {
      "select sum(volume), dim0.h01 from cube group by dim0.h01",
      "select min(volume), dim0.h02 from cube group by dim0.h02",
      "select sum(volume), dim0.h02 from cube where dim0.h01 = '" +
          gen::AttrValue(0, 1, 0) + "' group by dim0.h02",
  };

  struct FormatRun {
    std::string name;
    std::vector<query::GroupedResult> serial;
    std::vector<query::GroupedResult> parallel;
    std::vector<query::GroupedResult> cached;
    std::vector<query::GroupedResult> wire;
  };
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("PARADISE_FORCE_CHUNK_FORMAT"); }
  } env_guard;

  // name -> expected tag byte as seen through ReadChunkBlob (nullopt =
  // format picks per chunk). LZW-wrapped chunks come back unwrapped to
  // their dense form, so "lzw" reads as the dense tag.
  const std::vector<std::pair<std::string, std::optional<uint8_t>>> formats = {
      {"offset", uint8_t{1}},   {"dense", uint8_t{0}},
      {"auto", std::nullopt},   {"lzw", uint8_t{0}},
      {"diffseq", uint8_t{3}},
  };
  std::vector<FormatRun> runs;
  for (const auto& [name, want_tag] : formats) {
    SCOPED_TRACE("chunk format " + name);
    ::setenv("PARADISE_FORCE_CHUNK_FORMAT", name.c_str(), 1);
    TempFile file("codecsweep_" + name + "_" + std::to_string(GetParam()));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<Database> db,
        BuildDatabaseFromDataset(file.path(), data, SmallDbOptions()));
    ::unsetenv("PARADISE_FORCE_CHUNK_FORMAT");

    // The sweep is only meaningful if the forced codec actually landed on
    // disk: check the first non-empty chunk's tag byte.
    if (want_tag.has_value()) {
      const ChunkedArray& array = db->olap()->array(0);
      for (uint64_t c = 0; c < db->olap()->layout().num_chunks(); ++c) {
        if (array.ChunkIsEmpty(c)) continue;
        ASSERT_OK_AND_ASSIGN(std::string blob, array.ReadChunkBlob(c));
        ASSERT_FALSE(blob.empty());
        EXPECT_EQ(static_cast<uint8_t>(blob[0]), *want_tag)
            << "forced format " << name << " not stored in chunk " << c;
        break;
      }
    }

    FormatRun run;
    run.name = name;
    query::ConsolidationResultCache cache(
        query::ConsolidationResultCache::Options{});
    RunQueryOptions serial;
    serial.cold = false;
    RunQueryOptions parallel;
    parallel.cold = false;
    parallel.num_threads = 4;
    RunQueryOptions cached;
    cached.cold = false;
    cached.cache = &cache;
    for (const query::ConsolidationQuery& q : queries) {
      ASSERT_OK_AND_ASSIGN(Execution s,
                           RunQuery(db.get(), EngineKind::kArray, q, serial));
      run.serial.push_back(s.result);
      ASSERT_OK_AND_ASSIGN(Execution p,
                           RunQuery(db.get(), EngineKind::kArray, q, parallel));
      run.parallel.push_back(p.result);
      ASSERT_OK_AND_ASSIGN(Execution miss,
                           RunQuery(db.get(), EngineKind::kArray, q, cached));
      ASSERT_OK_AND_ASSIGN(Execution hit,
                           RunQuery(db.get(), EngineKind::kArray, q, cached));
      EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
      ASSERT_TRUE(hit.result.SameAs(miss.result));
      run.cached.push_back(hit.result);
    }

    // Over the wire: same storage served through the framed protocol.
    server::OlapServer olapd(db.get(), server::ServerOptions{});
    ASSERT_OK(olapd.Start());
    {
      ASSERT_OK_AND_ASSIGN(auto client,
                           server::OlapClient::Connect("127.0.0.1",
                                                       olapd.port()));
      for (const std::string& s : sql) {
        ASSERT_OK_AND_ASSIGN(auto reply, client->Query(s));
        ASSERT_TRUE(reply.ok) << reply.error.message;
        run.wire.push_back(reply.result.result);
      }
    }
    olapd.Stop();
    runs.push_back(std::move(run));

    // Ground truth once: the baseline build must match brute force, so a
    // codec bug shared by every format cannot hide in the cross-check.
    if (runs.size() == 1) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const query::GroupedResult expected = BruteForce(data, queries[i]);
        ASSERT_TRUE(runs[0].serial[i].SameAs(expected))
            << "baseline diverges from brute force, query " << i;
      }
    }
  }

  const FormatRun& base = runs.front();
  for (size_t f = 1; f < runs.size(); ++f) {
    SCOPED_TRACE("comparing " + runs[f].name + " against " + base.name);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(runs[f].serial[i].SameAs(base.serial[i]))
          << "serial query " << i << " diverges";
      EXPECT_TRUE(runs[f].parallel[i].SameAs(base.parallel[i]))
          << "parallel query " << i << " diverges";
      EXPECT_TRUE(runs[f].cached[i].SameAs(base.cached[i]))
          << "cached query " << i << " diverges";
    }
    for (size_t i = 0; i < sql.size(); ++i) {
      EXPECT_TRUE(runs[f].wire[i].SameAs(base.wire[i]))
          << "over-the-wire query " << i << " diverges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecSweepFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

}  // namespace
}  // namespace paradise

/// Custom main so the fuzz binary accepts --rng-seed=<n> (and the
/// PARADISE_FUZZ_SEED environment variable) to replay one seed across every
/// parameterized instance. gtest flags are consumed by InitGoogleTest first;
/// anything left over is ours.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kFlag = "--rng-seed=";
    if (arg.substr(0, kFlag.size()) == kFlag) {
      paradise::g_seed_override =
          std::strtoull(arg.substr(kFlag.size()).data(), nullptr, 10);
    } else if (arg == "--rng-seed" && i + 1 < argc) {
      paradise::g_seed_override = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (!paradise::g_seed_override.has_value()) {
    if (const char* env = std::getenv("PARADISE_FUZZ_SEED")) {
      paradise::g_seed_override = std::strtoull(env, nullptr, 10);
    }
  }
  if (paradise::g_seed_override.has_value()) {
    std::printf("fuzz_test: overriding every instance seed with %llu\n",
                static_cast<unsigned long long>(*paradise::g_seed_override));
  }
  return RUN_ALL_TESTS();
}
