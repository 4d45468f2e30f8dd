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

/// The bitmap and B-tree plans reach fact tuples only through an index on
/// every selected attribute: `indexes[dim][col]`, `missing` where none was
/// built.
template <typename Index>
Status CheckSelectionsIndexed(const Database& db,
                              const query::ConsolidationQuery& q,
                              const std::vector<std::vector<Index>>& indexes,
                              const Index& missing, std::string_view plan,
                              std::string_view index) {
  if (!q.HasSelection()) {
    return Status::InvalidArgument(std::string(plan) +
                                   " requires at least one selection");
  }
  for (size_t d = 0; d < q.dims.size(); ++d) {
    for (const query::Selection& s : q.dims[d].selections) {
      if (d >= indexes.size() || s.attr_col >= indexes[d].size() ||
          indexes[d][s.attr_col] == missing) {
        return Status::InvalidArgument(
            "no " + std::string(index) + " on dimension " + db.dim(d).name() +
            " column " + std::to_string(s.attr_col));
      }
    }
  }
  return Status::OK();
}

/// The RollUp plan that answers `target` from a cached result of the same
/// selection family grouped as `source`: per source group column, the
/// target column it lands in (none where the target collapses the
/// dimension) and, where the level changes, the finer→coarser IndexToIndex
/// map. nullopt when `target` groups a dimension `source` does not, or a
/// level change is not functional (the data would not derive exactly).
std::optional<std::vector<RollUpColumn>> CachedRollUpColumns(
    const OlapArray& olap, const query::CanonicalQuery& source,
    const query::CanonicalQuery& target) {
  if (source.dims.size() != target.dims.size() ||
      olap.num_dims() != target.dims.size()) {
    return std::nullopt;
  }
  std::vector<RollUpColumn> columns;
  size_t target_pos = 0;
  for (size_t d = 0; d < target.dims.size(); ++d) {
    const std::optional<size_t>& from = source.dims[d].group_by_col;
    const std::optional<size_t>& to = target.dims[d].group_by_col;
    if (!from.has_value()) {
      if (to.has_value()) return std::nullopt;  // can't refine
      continue;
    }
    RollUpColumn& column = columns.emplace_back();
    if (!to.has_value()) continue;
    column.target = target_pos++;
    if (*to != *from) {
      std::optional<std::vector<int32_t>> map =
          olap.i2i(d).FunctionalRollUp(*from, *to);
      if (!map.has_value()) return std::nullopt;
      column.map = std::move(*map);
    }
  }
  return columns;
}

}  // namespace

Status CheckEngineAccepts(const Database& db, EngineKind kind,
                          const query::ConsolidationQuery& q) {
  std::vector<size_t> dim_cols;
  dim_cols.reserve(db.schema().dims.size());
  for (const DimensionSpec& d : db.schema().dims) {
    dim_cols.push_back(d.attrs.size());
  }
  PARADISE_RETURN_IF_ERROR(q.Validate(dim_cols));
  if (q.dims.size() + q.measure >= db.fact_schema().num_columns()) {
    return Status::InvalidArgument("measure index out of range");
  }
  switch (kind) {
    case EngineKind::kArray:
      if (!db.has_olap()) {
        return Status::InvalidArgument("database has no OLAP array");
      }
      break;
    case EngineKind::kBitmap:
      return CheckSelectionsIndexed(db, q, db.bitmap_indexes(),
                                    std::shared_ptr<BitmapJoinIndex>(),
                                    "bitmap algorithm", "bitmap index");
    case EngineKind::kBTreeSelect:
      return CheckSelectionsIndexed(db, q, db.btree_join_roots(),
                                    kInvalidPageId, "B-tree selection plan",
                                    "B-tree join index");
    case EngineKind::kStarJoin:
    case EngineKind::kLeftDeep:
      break;
  }
  return Status::OK();
}

namespace {

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
  // Every run, cached or not: a cached answer must never mask the error an
  // engine run would report (e.g. the bitmap plan rejects selection-free
  // queries even though the cached result would be correct).
  PARADISE_RETURN_IF_ERROR(CheckEngineAccepts(*db, kind, q));
  // Pin the (epoch, array-version) snapshot once per query: everything
  // below — cache keying, scan planning, chunk decoding — reads this copy,
  // so concurrent ingest commits and compactions can publish freely without
  // ever tearing or blocking this query.
  std::optional<Database::PinnedArray> pin;
  if (kind == EngineKind::kArray) pin.emplace(db->PinArray());
  Execution exec;
  exec.stats.engine = kind;
  exec.stats.traced = options.trace;
  // A commit that published between the caller's epoch check and
  // PinArray() leaves the pin newer than cache_pin_epoch. Such a run skips
  // the cache: filing its new-epoch result under the caller's older epoch
  // would poison pinned-snapshot reads, and a lookup at the newer epoch
  // would invalidate the entry the caller's snapshot still serves.
  const bool pin_outran_caller = pin.has_value() &&
                                 options.cache_pin_epoch.has_value() &&
                                 pin->epoch != *options.cache_pin_epoch;
  query::ConsolidationResultCache* const cache =
      pin_outran_caller ? nullptr : options.cache;
  std::string cache_scope;
  uint64_t cache_epoch = 0;
  query::CanonicalQuery canon;
  if (cache != nullptr) {
    cache_scope = db->CacheScope();
    // Key cache traffic by the epoch the result is computed against.
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
      const Result<GroupSpec> spec = GroupSpec::Make(*db->olap(), q);
      for (const query::ConsolidationResultCache::Candidate& cand :
           cache->DerivationCandidates(cache_scope, cache_epoch, canon)) {
        const DeriveDecision decision = ChooseDeriveOrScan(
            *db, cand.result->num_groups(), cache->options().derive_row_cost);
        if (!decision.derive || !spec.ok()) break;
        std::optional<std::vector<RollUpColumn>> columns =
            CachedRollUpColumns(*db->olap(), cand.canon, canon);
        if (!columns.has_value()) continue;  // not functional at this level
        std::optional<query::GroupedResult> derived =
            RollUp(*cand.result, *columns, *spec,
                   spec->GroupColumnNames(*db->olap()));
        if (!derived.has_value()) continue;  // cached rows of another shape
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
      return exec;
    }
  }
  if (options.cold) {
    ScopedPhase phase(&exec.stats.phases, "drop-caches");
    PARADISE_RETURN_IF_ERROR(db->DropCaches());
  }
  const BufferPoolStats before = db->storage()->pool()->stats();
  Stopwatch watch;
  // What the four relational engines read; the array arm ignores it.
  const RelationalInput relational{db->fact(),         &db->fact_schema(),
                                   db->DimPointers(),  &q,
                                   &exec.stats.phases, options.cancel};

  switch (kind) {
    case EngineKind::kArray: {
      // Record which decode kernel this query's consolidation dispatches —
      // in the stats and (when metrics are on) as a kernel.dispatch.<isa>
      // counter — so a speedup or a regression is attributable to the ISA
      // from any surface.
      const kernels::Isa isa = kernels::ActiveIsa();
      exec.stats.kernel_isa = std::string(kernels::IsaName(isa));
      if (db->storage()->options().metrics_enabled) {
        MetricsRegistry::Default()
            .GetCounter("kernel.dispatch." + exec.stats.kernel_isa)
            ->Increment();
      }
      // A registered aggregate that derives `q` answers in its place (looked
      // up after PinArray(), see FindAggregate); otherwise the executor runs
      // against the pinned snapshot, never the live Database instance.
      const std::optional<AggregateMatch> match = db->FindAggregate(q);
      ArrayConsolidateOptions array_options;
      array_options.num_threads = options.num_threads;
      array_options.cancel = options.cancel;
      ArrayConsolidateStats stats;
      PARADISE_ASSIGN_OR_RETURN(
          exec.result,
          ArrayConsolidate(match ? match->aggregate->cube : pin->array,
                           match ? match->query : q, &exec.stats.phases,
                           &stats, array_options));
      exec.stats.aux = stats.chunks_read;
      if (match) exec.stats.aggregate = match->aggregate->provenance.name;
      break;
    }
    case EngineKind::kStarJoin: {
      PARADISE_ASSIGN_OR_RETURN(exec.result, StarJoinConsolidate(relational));
      break;
    }
    case EngineKind::kBitmap: {
      PARADISE_ASSIGN_OR_RETURN(
          exec.result, BitmapSelectConsolidate(relational, db->bitmap_indexes(),
                                               &exec.stats.aux));
      break;
    }
    case EngineKind::kLeftDeep: {
      PARADISE_ASSIGN_OR_RETURN(
          exec.result, LeftDeepJoinConsolidate(relational, &exec.stats.aux));
      break;
    }
    case EngineKind::kBTreeSelect: {
      PARADISE_ASSIGN_OR_RETURN(
          exec.result,
          BTreeSelectConsolidate(relational, db->btree_join_roots(),
                                 db->storage()->pool(), &exec.stats.aux));
      break;
    }
  }

  exec.stats.seconds = watch.ElapsedSeconds();
  exec.stats.io = db->storage()->pool()->stats().Delta(before);
  // An aggregate's answer is exact in SUM only, and the cache signature
  // ignores the aggregate function: caching it would serve a later COUNT.
  if (cache != nullptr && exec.stats.aggregate.empty()) {
    cache->Insert(cache_scope, cache_epoch, canon,
                  std::make_shared<const query::GroupedResult>(exec.result));
  }
  return exec;
}

// Writes the spans from `i` on whose parent is `parent` (-1: the trace
// root), each followed by its own subtree; returns the first index past
// them. Spans are in opening order, so a subtree is a contiguous run.
size_t WriteSpans(JsonWriter& w, const std::vector<PhaseSpan>& spans, size_t i,
                  int32_t parent) {
  while (i < spans.size() && spans[i].parent == parent) {
    const PhaseSpan& span = spans[i];
    w.BeginObject();
    w.KV("name", span.name);
    w.KV("start_micros", span.start_micros);
    w.KV("duration_micros", span.duration_micros);
    const int32_t self = static_cast<int32_t>(i++);
    if (i < spans.size() && spans[i].parent == self) {
      w.Key("children");
      w.BeginArray();
      i = WriteSpans(w, spans, i, self);
      w.EndArray();
    }
    w.EndObject();
  }
  return i;
}

}  // namespace

std::string ExecutionStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("seconds", seconds);
  w.KV("modeled_seconds", ModeledSeconds());
  w.KV("aux", aux);
  w.KV("kernel_isa", kernel_isa);
  w.KV("aggregate", aggregate);
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
  for (const auto& [phase, micros] : phases.phases()) w.KV(phase, micros);
  w.EndObject();
  w.Key("cache");
  w.BeginObject();
  w.KV("outcome", CacheOutcomeToString(cache_outcome));
  w.KV("source_rows", cache_source_rows);
  w.EndObject();
  if (traced) {
    w.Key("trace");
    w.BeginObject();
    w.KV("name", "query:" + std::string(EngineKindToString(engine)));
    w.KV("start_micros", int64_t{0});
    w.KV("duration_micros", phases.EndMicros());
    if (!phases.spans().empty()) {
      w.Key("children");
      w.BeginArray();
      WriteSpans(w, phases.spans(), 0, -1);
      w.EndArray();
    }
    w.EndObject();
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
