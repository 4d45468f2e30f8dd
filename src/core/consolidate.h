// The OLAP Array consolidation executor: one chunk-ordered pass over the
// compressed array that aggregates position-based into a flat in-memory
// result array (the fused star-join + group-by + aggregate). The pass runs
// over a morsel source chosen by the query:
//
//   - no selection (paper §4.1): every non-empty chunk is scanned; each
//     valid cell's indices are mapped through the IndexToIndex arrays to its
//     result cell (kernels::AggregateRange);
//   - with a selection (§4.2): the per-attribute B-trees give per-dimension
//     index lists, and only the chunks that overlap their cross-product are
//     read, each probed in chunk-offset order
//     (select_detail::ProbeSelectionRange, core/consolidate_select.h).
//
// A chunk with ingest deltas is read as its base bytes plus its sorted
// ChunkDelta and merged inside the kernel and the probe (core/morsel.h);
// the executor never rebuilds or re-encodes a chunk.
//
// At num_threads == 1 the pass runs inline on the caller's thread — the
// paper's serial algorithms. With more threads (the intra-operator
// parallelism the paper names as future work, §6) workers claim morsels from
// one MorselPool (core/morsel.h), each aggregating into a private flat array
// that a final merge folds together. Chunks come from one ChunkReadAhead
// cursor (array/chunk_prefetcher.h). When the scan's reads are about to miss
// the pool (ChunkedArray::DataBuffered is false, as right after the
// cold-buffer protocol emptied it), one reader on the storage manager's I/O
// pool reads them ahead in chunk order, so the page reads — and every count
// derived from them — are those of a synchronous serial scan; over buffered
// pages each consumer reads its own chunks.
// Results are bit-identical at every thread count: AggState accumulation
// over int64 measures is order-independent, and cell→group assignment does
// not depend on which worker takes which morsel.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/olap_array.h"
#include "query/query.h"
#include "query/result.h"

namespace paradise {

/// Work counters of one consolidation; ArrayConsolidate adds into them, so
/// one struct can total several queries.
struct ArrayConsolidateStats {
  uint64_t chunks_read = 0;
  uint64_t chunks_skipped = 0;  // §4.2: skipped without I/O (no overlap)
  uint64_t candidates = 0;      // §4.2: cross-product elements probed
  uint64_t hits = 0;            // §4.2: candidates that were valid cells
  uint64_t cells_scanned = 0;   // §4.1: valid cells aggregated
  /// Morsel scheduling (core/morsel.h): morsels executed, extra pieces split
  /// off large chunks, and morsels run by a worker other than the one that
  /// fetched the chunk. morsels == chunks_read + morsel_splits.
  uint64_t morsels = 0;
  uint64_t morsel_splits = 0;
  uint64_t morsel_steals = 0;
};

struct ArrayConsolidateOptions {
  /// Worker threads (>= 1). 1 runs inline on the caller's thread with no
  /// morsel splitting. Whether chunks are read ahead does not depend on it.
  size_t num_threads = 1;
  /// Polled at every morsel boundary (at least once per chunk); when it
  /// fires the query stops within one morsel's work, every worker is joined,
  /// and the token's typed Status is returned. Not owned; may be nullptr.
  const CancellationToken* cancel = nullptr;
  /// §4.2 optimization 1: do not read chunks that overlap no cross-product
  /// element. Off = read every non-empty chunk (ablation).
  bool skip_non_overlapping_chunks = true;
  /// Target positions (§4.1) or cross-product candidates (§4.2) per morsel
  /// when more than one worker runs. A chunk with at least twice this many
  /// is split into pieces other workers can steal; UINT32_MAX keeps every
  /// chunk whole (the abl_parallel chunk-cursor baseline).
  uint32_t min_cells = 1u << 14;
};

/// Runs a consolidation, with or without a selection. The result array (of
/// AggStates) must fit in memory — the paper makes the same assumption and
/// notes the chunk-by-chunk extension is straightforward (§4.1). The
/// measure's chunked array is copied once up front, so chunk enumeration and
/// every chunk read see one version even while ingest publishes new ones.
Result<query::GroupedResult> ArrayConsolidate(
    const OlapArray& array, const query::ConsolidationQuery& q,
    PhaseTimer* timer = nullptr, ArrayConsolidateStats* stats = nullptr,
    const ArrayConsolidateOptions& options = {});

/// The paper's full contract (§4.1): "the result of a consolidation
/// operation on an instance of the OLAP Array ADT is another instance of the
/// OLAP Array ADT", complete with its own dimension tables, B-trees and
/// IndexToIndex arrays — so the result cube can be sliced, selected and
/// rolled up further. Each grouped dimension becomes a result dimension
/// whose members are the grouped level's values and whose attributes are the
/// levels at and above the grouped level (assuming the usual functional
/// dependency finer level → coarser level; with non-hierarchical data the
/// coarser attribute of a member is taken from that member's first base
/// element). `dims` are the source cube's dimension tables (they carry the
/// display strings the new dimension tables need); the result is stored in
/// the catalog under `name` and its dimension tables under
/// "dim.<name>.<dim>". A query with a selection is rejected with
/// InvalidArgument: Database::MaterializeAggregate registers only the
/// grouping, so a filtered cube would later be served to unfiltered queries.
Result<OlapArray> ConsolidateToOlapArray(
    StorageManager* storage, const OlapArray& array,
    const std::vector<const DimensionTable*>& dims,
    const query::ConsolidationQuery& q, const std::string& name,
    const ArrayOptions& options);

}  // namespace paradise
