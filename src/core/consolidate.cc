#include "core/consolidate.h"

#include <optional>
#include <thread>
#include <utility>

#include "array/chunk_prefetcher.h"
#include "common/metrics.h"
#include "core/aggregate.h"
#include "core/consolidate_select.h"
#include "core/kernels/consolidate_kernel.h"
#include "core/morsel.h"
#include "storage/storage_manager.h"

namespace paradise {

namespace {

/// Chunk bytes a scan's reader keeps ahead of the claims on the storage
/// manager's background I/O pool (array/chunk_prefetcher.h). The reader is
/// resubmitted once half of it drained.
constexpr size_t kReadAheadBytes = 256 << 10;

/// Adds one worker's work counters into the query's.
void AddWorkStats(const ArrayConsolidateStats& w, ArrayConsolidateStats* to) {
  to->chunks_read += w.chunks_read;
  to->candidates += w.candidates;
  to->hits += w.hits;
  to->cells_scanned += w.cells_scanned;
}

}  // namespace

Result<query::GroupedResult> ArrayConsolidate(
    const OlapArray& array, const query::ConsolidationQuery& q,
    PhaseTimer* timer, ArrayConsolidateStats* stats,
    const ArrayConsolidateOptions& options) {
  using select_detail::SelectionChunkWork;
  const size_t threads = options.num_threads;
  if (threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  GroupSpec spec;
  {
    ScopedPhase phase(timer, "prepare");
    PARADISE_ASSIGN_OR_RETURN(spec, GroupSpec::Make(array, q));
  }
  ArrayConsolidateStats local;
  ArrayConsolidateStats* const out = stats != nullptr ? stats : &local;

  // §4.2 phase 1: B-tree index lookups and list merging.
  std::optional<select_detail::SelectionPlan> plan;
  if (q.HasSelection()) {
    ScopedPhase phase(timer, "index-lookup");
    PARADISE_ASSIGN_OR_RETURN(plan,
                              select_detail::MakeSelectionPlan(array, q, spec));
    if (plan->empty) {
      return FlatToGroupedResult(spec, {}, spec.GroupColumnNames(array));
    }
  }

  std::vector<std::vector<query::AggState>> partials(threads);
  for (std::vector<query::AggState>& p : partials) p.resize(spec.num_groups);
  std::vector<ArrayConsolidateStats> worker_stats(threads);
  MorselPoolStats pool_stats;
  {
    ScopedPhase phase(timer, plan ? "probe+aggregate" : "scan+aggregate");
    // One pinned version for chunk enumeration and every read below.
    const ChunkedArray data = array.array(q.measure);
    // The morsel source: every non-empty chunk (§4.1), or the chunks the
    // selection's cross-product overlaps (§4.2), in chunk-number = physical
    // order, the claim order read-ahead wants.
    std::vector<SelectionChunkWork> work;
    std::vector<uint64_t> chunks;
    if (plan) {
      work = select_detail::PlanSelectionChunks(
          data, *plan, options.skip_non_overlapping_chunks, out);
      chunks.reserve(work.size());
      for (const SelectionChunkWork& w : work) chunks.push_back(w.chunk_no);
    } else {
      for (uint64_t c = 0; c < data.layout().num_chunks(); ++c) {
        if (!data.ChunkIsEmpty(c)) chunks.push_back(c);
      }
    }
    // Read ahead when the scan's reads are about to miss the pool (the
    // cold-buffer protocol just emptied it); a scan over buffered pages
    // reads each chunk on its consumer, which costs no handoff. A single
    // worker never splits: nobody could steal the pieces.
    StorageManager* storage = array.storage();
    ChunkReadAhead cursor(&data, std::move(chunks),
                          data.DataBuffered() ? 0 : kReadAheadBytes,
                          storage->io_pool(), storage->pool());
    MorselPool pool(&cursor, plan ? &work : nullptr,
                    threads == 1 ? UINT32_MAX : options.min_cells,
                    options.cancel);

    auto run_worker = [&](size_t w) -> Status {
      std::vector<query::AggState>& flat = partials[w];
      ArrayConsolidateStats& ws = worker_stats[w];
      // Reused across morsels: decode tables are built once per chunk, and
      // a split §4.2 piece narrows a copy of its work item.
      kernels::KernelTables tables;
      std::optional<uint64_t> tables_chunk;
      SelectionChunkWork piece;
      Morsel m;
      for (;;) {
        PARADISE_ASSIGN_OR_RETURN(bool more, pool.Next(w, &m));
        if (!more) return Status::OK();
        if (m.first) ++ws.chunks_read;
        if (m.work == nullptr) {
          if (tables_chunk != m.chunk_no) {
            tables.Build(array, spec, m.chunk_no);
            tables_chunk = m.chunk_no;
          }
          // The merge of base and delta: base cells minus the superseded
          // ones in every piece, the delta cells once, with the first piece.
          if (m.view) {
            ws.cells_scanned += kernels::AggregateRange(
                *m.view, m.begin, m.end, tables, flat.data(), m.delta);
          }
          if (m.first && m.delta != nullptr) {
            ws.cells_scanned +=
                kernels::AggregateDelta(*m.delta, tables, flat.data());
          }
        } else if (m.work->overlap) {  // else: ablation read, nothing to probe
          piece = *m.work;
          piece.slice_begin[m.dim] = m.begin;
          piece.slice_end[m.dim] = m.end;
          PARADISE_RETURN_IF_ERROR(select_detail::ProbeSelectionRange(
              array.layout(), spec, *plan, piece,
              m.view ? &*m.view : nullptr, m.delta, &flat, &ws));
        }
      }
    };
    if (threads == 1) {
      PARADISE_RETURN_IF_ERROR(run_worker(0));
    } else {
      // Every worker is joined before the first error is returned.
      std::vector<Status> status(threads);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&, w] { status[w] = run_worker(w); });
      }
      for (std::thread& t : workers) t.join();
      for (const Status& st : status) PARADISE_RETURN_IF_ERROR(st);
    }
    pool_stats = pool.stats();
  }

  std::vector<query::AggState> flat = std::move(partials[0]);
  if (threads > 1) {
    ScopedPhase phase(timer, "merge");
    for (size_t w = 1; w < threads; ++w) {
      for (uint64_t i = 0; i < spec.num_groups; ++i) {
        if (partials[w][i].count > 0) flat[i].Merge(partials[w][i]);
      }
    }
  }
  for (const ArrayConsolidateStats& ws : worker_stats) AddWorkStats(ws, out);
  out->morsels += pool_stats.morsels;
  out->morsel_splits += pool_stats.splits;
  out->morsel_steals += pool_stats.steals;
  if (array.storage()->options().metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    reg.GetCounter("morsel.splits")->Increment(pool_stats.splits);
    reg.GetCounter("morsel.steals")->Increment(pool_stats.steals);
  }

  ScopedPhase phase(timer, "emit");
  return FlatToGroupedResult(spec, flat, spec.GroupColumnNames(array));
}

Result<OlapArray> ConsolidateToOlapArray(
    StorageManager* storage, const OlapArray& array,
    const std::vector<const DimensionTable*>& dims,
    const query::ConsolidationQuery& q, const std::string& name,
    const ArrayOptions& options) {
  if (dims.size() != array.num_dims()) {
    return Status::InvalidArgument("dimension table count mismatch");
  }
  // The registry records only the grouping of a materialized cube, so a
  // filtered one would later answer unfiltered queries with partial sums.
  if (q.HasSelection()) {
    return Status::InvalidArgument(
        "cannot materialize a consolidation with a selection as an ADT");
  }
  PARADISE_ASSIGN_OR_RETURN(GroupSpec spec, GroupSpec::Make(array, q));
  if (spec.grouped_dims.empty()) {
    return Status::InvalidArgument(
        "cannot materialize a fully-collapsed consolidation as an ADT");
  }
  PARADISE_ASSIGN_OR_RETURN(query::GroupedResult result,
                            ArrayConsolidate(array, q));

  // Phase 1 of §4.1: build the result dimension tables (and with them, via
  // OlapArray::Builder, the result B-trees). Result dimension g's member c
  // is the grouped level's value c; its attributes are the grouped level and
  // every coarser one, valued from the first base member mapping to c.
  std::vector<DimensionTable> result_dims;
  result_dims.reserve(spec.grouped_dims.size());
  for (size_t g = 0; g < spec.grouped_dims.size(); ++g) {
    const size_t d = spec.grouped_dims[g];
    const size_t level = spec.group_cols[g];
    const DimensionTable& source = *dims[d];
    const IndexToIndexArray& i2i = array.i2i(d);
    const size_t num_levels = i2i.num_levels();

    std::vector<Column> columns;
    columns.push_back(Column{source.schema().column(0).name,
                             ColumnType::kInt32});
    for (size_t l = level; l < num_levels; ++l) {
      columns.push_back(source.schema().column(l));
    }
    PARADISE_ASSIGN_OR_RETURN(
        DimensionTable table,
        DimensionTable::Create(storage->pool(),
                               source.name() + "@" +
                                   source.schema().column(level).name,
                               Schema(columns)));

    // First base member per grouped-level code.
    std::vector<int32_t> representative(
        static_cast<size_t>(spec.cardinalities[g]), -1);
    for (uint32_t base = 0; base < i2i.num_members(); ++base) {
      const int32_t code = i2i.Map(level, base);
      if (representative[code] < 0) {
        representative[code] = static_cast<int32_t>(base);
      }
    }
    const Schema table_schema = table.schema();
    for (int32_t code = 0; code < spec.cardinalities[g]; ++code) {
      if (representative[code] < 0) {
        return Status::Internal("level code with no base member");
      }
      const auto base = static_cast<uint32_t>(representative[code]);
      Tuple row(&table_schema);
      row.SetInt32(0, code);
      for (size_t l = level; l < num_levels; ++l) {
        const int32_t lcode = i2i.Map(l, base);
        PARADISE_ASSIGN_OR_RETURN(const AttributeDictionary* dict,
                                  source.Dictionary(l));
        PARADISE_RETURN_IF_ERROR(row.SetString(
            1 + (l - level), dict->code_to_display[lcode]));
      }
      PARADISE_RETURN_IF_ERROR(table.Append(row));
    }
    PARADISE_RETURN_IF_ERROR(storage->SetRoot(
        "dim." + name + "." + source.name(), table.first_page()));
    result_dims.push_back(std::move(table));
  }

  // Phase 2: load the aggregated cells into the result ADT.
  std::vector<const DimensionTable*> dim_ptrs;
  dim_ptrs.reserve(result_dims.size());
  for (const DimensionTable& t : result_dims) dim_ptrs.push_back(&t);
  std::vector<uint32_t> extents;
  for (int32_t c : spec.cardinalities) {
    extents.push_back(std::max<uint32_t>(
        1, std::min<uint32_t>(static_cast<uint32_t>(c),
                              options.default_chunk_extent)));
  }
  OlapArray::Builder builder(storage, name, dim_ptrs, extents, options);
  PARADISE_RETURN_IF_ERROR(builder.Init());
  for (const query::ResultRow& row : result.rows()) {
    PARADISE_RETURN_IF_ERROR(builder.PutByKeys(row.group, row.agg.sum));
  }
  return builder.Finish();
}

}  // namespace paradise
