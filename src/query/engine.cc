#include "query/engine.h"

#include "common/json_writer.h"
#include "common/metrics.h"
#include "core/aggregate.h"
#include "core/consolidate.h"
#include "core/kernels/consolidate_kernel.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "relational/bitmap_select.h"
#include "relational/btree_select.h"
#include "relational/hash_join.h"
#include "relational/star_join.h"

namespace paradise {

std::string_view EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kArray:
      return "array";
    case EngineKind::kStarJoin:
      return "starjoin";
    case EngineKind::kBitmap:
      return "bitmap";
    case EngineKind::kLeftDeep:
      return "leftdeep";
    case EngineKind::kBTreeSelect:
      return "btreeselect";
  }
  return "unknown";
}

std::string_view CacheOutcomeToString(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kOff:
      return "off";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kHit:
      return "hit";
    case CacheOutcome::kDerived:
      return "derived";
  }
  return "unknown";
}

namespace {

/// Whether the uncached `kind` run would accept this query at all. A cached
/// answer must never mask the error an engine run would have reported —
/// e.g. the bitmap plan rejects selection-free queries and queries on
/// unindexed columns even though the cached result would be correct.
Status CachedQueryServable(Database* db, EngineKind kind,
                           const query::ConsolidationQuery& q) {
  std::vector<size_t> dim_cols;
  dim_cols.reserve(db->schema().dims.size());
  for (const DimensionSpec& d : db->schema().dims) {
    dim_cols.push_back(d.attrs.size());
  }
  PARADISE_RETURN_IF_ERROR(q.Validate(dim_cols));
  const size_t measure_col = q.dims.size() + q.measure;
  if (measure_col >= db->fact_schema().num_columns()) {
    return Status::InvalidArgument("measure index out of range");
  }
  switch (kind) {
    case EngineKind::kArray:
      if (!db->has_olap()) {
        return Status::InvalidArgument("database has no OLAP array");
      }
      break;
    case EngineKind::kBitmap: {
      if (!q.HasSelection()) {
        return Status::InvalidArgument(
            "bitmap algorithm requires at least one selection");
      }
      for (size_t d = 0; d < q.dims.size(); ++d) {
        for (const query::Selection& s : q.dims[d].selections) {
          if (d >= db->bitmap_indexes().size() ||
              s.attr_col >= db->bitmap_indexes()[d].size() ||
              db->bitmap_indexes()[d][s.attr_col] == nullptr) {
            return Status::InvalidArgument(
                "no bitmap index on dimension " + db->dim(d).name() +
                " column " + std::to_string(s.attr_col));
          }
        }
      }
      break;
    }
    case EngineKind::kBTreeSelect: {
      if (!q.HasSelection()) {
        return Status::InvalidArgument(
            "B-tree selection plan requires at least one selection");
      }
      for (size_t d = 0; d < q.dims.size(); ++d) {
        for (const query::Selection& s : q.dims[d].selections) {
          if (d >= db->btree_join_roots().size() ||
              s.attr_col >= db->btree_join_roots()[d].size() ||
              db->btree_join_roots()[d][s.attr_col] == kInvalidPageId) {
            return Status::InvalidArgument(
                "no B-tree join index on dimension " + db->dim(d).name() +
                " column " + std::to_string(s.attr_col));
          }
        }
      }
      break;
    }
    case EngineKind::kStarJoin:
    case EngineKind::kLeftDeep:
      break;
  }
  return Status::OK();
}

Result<Execution> RunQueryImpl(Database* db, EngineKind kind,
                               const query::ConsolidationQuery& q,
                               const RunQueryOptions& options) {
  if (options.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.cancel != nullptr) {
    // A query that is already cancelled or expired must not touch the
    // storage layer at all (not even the cold-buffer drop).
    PARADISE_RETURN_IF_ERROR(options.cancel->Check());
  }
  if (kind != EngineKind::kArray && db->ingested()) {
    // Incremental ingest maintains the OLAP array only; the relational fact
    // file stopped reflecting the data at the first ingest commit. Refuse
    // loudly rather than aggregate stale tuples. Placed before the cache
    // path so a cached pre-ingest answer cannot mask the gate either.
    return Status::NotSupported(
        "engine '" + std::string(EngineKindToString(kind)) +
        "' reads the relational fact file, which is stale after incremental "
        "ingest; use the array engine");
  }
  // Pin the (epoch, array-version) snapshot once per query: everything
  // below — cache keying, scan planning, chunk decoding — reads this copy,
  // so concurrent ingest commits and compactions can publish freely without
  // ever tearing or blocking this query.
  std::optional<Database::PinnedArray> pin;
  if (kind == EngineKind::kArray && db->has_olap()) {
    pin.emplace(db->PinArray());
  }
  Execution exec;
  if (options.trace) {
    exec.stats.trace = std::make_shared<ExecutionTrace>(
        "query:" + std::string(EngineKindToString(kind)));
    // Every ScopedPhase the engines open on the coordinator thread now also
    // records a trace span; worker threads use sink-less scratch timers.
    exec.stats.phases.set_trace(exec.stats.trace.get());
  }
  query::ConsolidationResultCache* const cache = options.cache;
  std::string cache_scope;
  uint64_t cache_epoch = 0;
  query::CanonicalQuery canon;
  if (cache != nullptr) {
    PARADISE_RETURN_IF_ERROR(CachedQueryServable(db, kind, q));
    cache_scope = db->CacheScope();
    // Key cache traffic by the epoch the result is actually computed
    // against. With a pin that is pin->epoch — even when the caller asked
    // for cache_pin_epoch: if a commit slipped in between the caller's
    // epoch check and PinArray(), filing the (new-epoch) result under the
    // caller's older epoch would poison pinned-snapshot reads.
    cache_epoch = pin.has_value()
                      ? pin->epoch
                      : options.cache_pin_epoch.value_or(db->commit_epoch());
    canon = query::CanonicalQuery::From(q);
    Stopwatch cache_watch;
    exec.stats.cache_outcome = CacheOutcome::kMiss;
    std::shared_ptr<const query::GroupedResult> hit;
    {
      ScopedPhase phase(&exec.stats.phases, "cache-lookup");
      hit = cache->Lookup(cache_scope, cache_epoch, canon);
    }
    if (hit == nullptr && db->has_olap()) {
      // Roll-up derivation: re-aggregate a cached finer-level result of the
      // same selection family through the IndexToIndex maps. Candidates come
      // cheapest-first, so the first one past the cost gate that proves
      // functional wins; a too-expensive candidate ends the scan.
      ScopedPhase phase(&exec.stats.phases, "cache-derive");
      std::vector<const IndexToIndexArray*> i2i;
      for (size_t d = 0; d < db->olap()->num_dims(); ++d) {
        i2i.push_back(&db->olap()->i2i(d));
      }
      for (const query::ConsolidationResultCache::Candidate& cand :
           cache->DerivationCandidates(cache_scope, cache_epoch, canon)) {
        const DeriveDecision decision = ChooseDeriveOrScan(
            *db, cand.result->num_groups(), cache->options().derive_row_cost);
        if (!decision.derive) break;
        Result<GroupSpec> spec = GroupSpec::Make(*db->olap(), q);
        if (!spec.ok()) break;
        std::optional<query::GroupedResult> derived =
            query::RollUpCachedResult(canon, cand, i2i,
                                      spec->GroupColumnNames(*db->olap()));
        if (!derived.has_value()) continue;  // not functional at this level
        cache->NoteDerivedHit();
        auto shared = std::make_shared<const query::GroupedResult>(
            std::move(*derived));
        cache->Insert(cache_scope, cache_epoch, canon, shared);
        hit = std::move(shared);
        exec.stats.cache_outcome = CacheOutcome::kDerived;
        exec.stats.cache_source_rows = cand.result->num_groups();
        break;
      }
    }
    if (hit != nullptr) {
      exec.result = *hit;
      if (exec.stats.cache_outcome != CacheOutcome::kDerived) {
        exec.stats.cache_outcome = CacheOutcome::kHit;
        exec.stats.cache_source_rows = hit->num_groups();
      }
      // A cache hit never touches the storage layer: no cold drop, zero
      // buffer-pool delta.
      exec.stats.seconds = cache_watch.ElapsedSeconds();
      if (exec.stats.trace != nullptr) {
        exec.stats.phases.set_trace(nullptr);
        exec.stats.trace->Finish();
      }
      return exec;
    }
  }
  if (options.cold) {
    TraceScope drop_span(exec.stats.trace.get(), "drop-caches");
    PARADISE_RETURN_IF_ERROR(db->DropCaches());
  }
  const BufferPoolStats before = db->storage()->pool()->stats();
  Stopwatch watch;

  switch (kind) {
    case EngineKind::kArray: {
      if (!db->has_olap()) {
        return Status::InvalidArgument("database has no OLAP array");
      }
      // Record which decode kernel this query's consolidation dispatches —
      // in the stats, as a zero-length marker span in the trace, and (when
      // metrics are on) as a kernel.dispatch.<isa> counter — so a speedup
      // or a regression is attributable to the ISA from any surface.
      const kernels::Isa isa = kernels::ActiveIsa();
      exec.stats.kernel_isa = std::string(kernels::IsaName(isa));
      { TraceScope kernel_span(exec.stats.trace.get(),
                               "kernel:" + exec.stats.kernel_isa); }
      if (db->storage()->options().metrics_enabled) {
        MetricsRegistry::Default()
            .GetCounter("kernel.dispatch." + exec.stats.kernel_isa)
            ->Increment();
      }
      // The executor runs against the pinned snapshot, never the live
      // Database instance.
      ArrayConsolidateOptions array_options;
      array_options.num_threads = options.num_threads;
      array_options.cancel = options.cancel;
      ArrayConsolidateStats stats;
      PARADISE_ASSIGN_OR_RETURN(
          exec.result, ArrayConsolidate(pin->array, q, &exec.stats.phases,
                                        &stats, array_options));
      exec.stats.aux = stats.chunks_read;
      break;
    }
    case EngineKind::kStarJoin: {
      StarJoinParams params;
      params.fact = db->fact();
      params.fact_schema = &db->fact_schema();
      params.dims = db->DimPointers();
      params.query = &q;
      params.timer = &exec.stats.phases;
      PARADISE_ASSIGN_OR_RETURN(exec.result, StarJoinConsolidate(params));
      break;
    }
    case EngineKind::kBitmap: {
      BitmapSelectParams params;
      params.fact = db->fact();
      params.fact_schema = &db->fact_schema();
      params.dims = db->DimPointers();
      params.bitmap_indexes = &db->bitmap_indexes();
      params.query = &q;
      params.timer = &exec.stats.phases;
      params.result_bits = &exec.stats.aux;
      PARADISE_ASSIGN_OR_RETURN(exec.result, BitmapSelectConsolidate(params));
      break;
    }
    case EngineKind::kLeftDeep: {
      LeftDeepJoinParams params;
      params.fact = db->fact();
      params.fact_schema = &db->fact_schema();
      params.dims = db->DimPointers();
      params.query = &q;
      params.timer = &exec.stats.phases;
      params.intermediate_rows = &exec.stats.aux;
      PARADISE_ASSIGN_OR_RETURN(exec.result, LeftDeepJoinConsolidate(params));
      break;
    }
    case EngineKind::kBTreeSelect: {
      BTreeSelectParams params;
      params.fact = db->fact();
      params.fact_schema = &db->fact_schema();
      params.dims = db->DimPointers();
      params.join_index_roots = &db->btree_join_roots();
      params.pool = db->storage()->pool();
      params.query = &q;
      params.timer = &exec.stats.phases;
      params.result_tuples = &exec.stats.aux;
      PARADISE_ASSIGN_OR_RETURN(exec.result, BTreeSelectConsolidate(params));
      break;
    }
  }

  exec.stats.seconds = watch.ElapsedSeconds();
  exec.stats.io = db->storage()->pool()->stats().Delta(before);
  if (cache != nullptr) {
    cache->Insert(cache_scope, cache_epoch, canon,
                  std::make_shared<const query::GroupedResult>(exec.result));
  }
  if (exec.stats.trace != nullptr) {
    exec.stats.phases.set_trace(nullptr);
    exec.stats.trace->Finish();
  }
  return exec;
}

}  // namespace

std::string ExecutionStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("seconds", seconds);
  w.KV("modeled_seconds", ModeledSeconds());
  w.KV("aux", aux);
  w.KV("kernel_isa", kernel_isa);
  w.Key("io");
  w.BeginObject();
  w.KV("logical_reads", io.logical_reads);
  w.KV("hits", io.hits);
  w.KV("disk_reads", io.disk_reads);
  w.KV("seq_disk_reads", io.seq_disk_reads);
  w.KV("rand_disk_reads", io.rand_disk_reads);
  w.KV("disk_writes", io.disk_writes);
  w.KV("evictions", io.evictions);
  w.KV("read_retries", io.read_retries);
  w.KV("coalesced_reads", io.coalesced_reads);
  w.KV("prefetched", io.prefetched);
  w.KV("prefetch_hits", io.prefetch_hits);
  w.KV("prefetch_wasted", io.prefetch_wasted);
  w.EndObject();
  w.Key("phases");
  w.BeginObject();
  for (const auto& [phase, micros] : phases.Snapshot()) w.KV(phase, micros);
  w.EndObject();
  w.Key("cache");
  w.BeginObject();
  w.KV("outcome", CacheOutcomeToString(cache_outcome));
  w.KV("source_rows", cache_source_rows);
  w.EndObject();
  if (trace != nullptr) {
    w.Key("trace");
    w.Raw(trace->ToJson());
  }
  w.EndObject();
  return w.Take();
}

Result<Execution> RunQuery(Database* db, EngineKind kind,
                           const query::ConsolidationQuery& q,
                           const RunQueryOptions& options) {
  Result<Execution> r = RunQueryImpl(db, kind, q, options);
  if (!r.ok()) {
    // Name the failing engine so a fault deep in the storage stack is
    // attributable from the top-level status alone. Corruption means the
    // file itself is damaged — point the operator at the offline checker.
    Status st = r.status().WithContext("engine " +
                                       std::string(EngineKindToString(kind)));
    if (st.IsCorruption()) {
      st = st.WithContext("database appears damaged; run `dbverify` on it");
    }
    return st;
  }
  return r;
}

}  // namespace paradise
