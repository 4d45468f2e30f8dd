#include "ingest/ingest.h"

#include <cstring>
#include <utility>

#include "common/coding.h"
#include "common/metrics.h"

namespace paradise {

namespace {
// "ingest.state" object layout:
//   [0,4)  magic "PIST"
//   [4]    version byte (1)
//   [5,13)  lifetime applied cell count
//   [13,21) next generation sequence number
//   [21,25) live generation count
//   per live generation: fixed64 seq + fixed64 object id
constexpr char kStateMagic[4] = {'P', 'I', 'S', 'T'};
constexpr uint8_t kStateVersion = 1;
constexpr char kStateRoot[] = "ingest.state";
constexpr char kGenRootPrefix[] = "ingest.delta.";
}  // namespace

std::string IngestStateRootName() { return kStateRoot; }

std::string IngestGenerationRootName(uint64_t seq) {
  return kGenRootPrefix + std::to_string(seq);
}

bool IsIngestGenerationRoot(const std::string& root_name, uint64_t* seq) {
  const size_t prefix_len = sizeof(kGenRootPrefix) - 1;
  if (root_name.compare(0, prefix_len, kGenRootPrefix) != 0) return false;
  if (root_name.size() == prefix_len) return false;
  uint64_t value = 0;
  for (size_t i = prefix_len; i < root_name.size(); ++i) {
    const char c = root_name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (seq != nullptr) *seq = value;
  return true;
}

IngestManager::IngestManager(Database* db)
    : db_(db),
      num_measures_(db->has_olap() ? db->olap()->num_measures() : 0),
      pending_(num_measures_),
      overlays_(num_measures_) {
  if (db_->storage()->options().metrics_enabled) {
    MetricsRegistry& reg = MetricsRegistry::Default();
    metric_writes_ = reg.GetCounter("ingest.writes");
    metric_commits_ = reg.GetCounter("ingest.commits");
    metric_committed_cells_ = reg.GetCounter("ingest.committed_cells");
    metric_compactions_ = reg.GetCounter("ingest.compactions");
    metric_compactions_cancelled_ =
        reg.GetCounter("ingest.compactions_cancelled");
    metric_compacted_chunks_ = reg.GetCounter("ingest.compacted_chunks");
    metric_retired_freed_ = reg.GetCounter("ingest.retired_freed");
  }
}

Status IngestManager::Write(const std::vector<int32_t>& keys,
                            const std::vector<int64_t>& measures) {
  if (!db_->has_olap()) {
    return Status::NotSupported("ingest requires the OLAP array");
  }
  const OlapArray* olap = db_->olap();
  if (keys.size() != olap->num_dims()) {
    return Status::InvalidArgument("ingest key arity mismatch: got " +
                                   std::to_string(keys.size()) +
                                   ", expected " +
                                   std::to_string(olap->num_dims()));
  }
  if (measures.size() != num_measures_) {
    return Status::InvalidArgument("ingest measure arity mismatch: got " +
                                   std::to_string(measures.size()) +
                                   ", expected " +
                                   std::to_string(num_measures_));
  }
  // Resolve keys to base array indices; ingest never grows dimensions, so
  // an unknown key is a typed client error, not a silent new cell.
  CellCoords coords(keys.size());
  for (size_t d = 0; d < keys.size(); ++d) {
    PARADISE_ASSIGN_OR_RETURN(std::optional<uint32_t> index,
                              olap->KeyToIndex(d, keys[d]));
    if (!index.has_value()) {
      return Status::NotFound("unknown key " + std::to_string(keys[d]) +
                              " for dimension '" + olap->dim_name(d) +
                              "'; ingest requires existing dimension keys");
    }
    coords[d] = *index;
  }
  const ChunkLayout& layout = olap->layout();
  const uint64_t chunk_no = layout.CoordsToChunk(coords);
  const uint32_t offset = layout.CoordsToOffset(coords);

  std::lock_guard<std::mutex> lk(mu_);
  for (size_t m = 0; m < num_measures_; ++m) {
    pending_.measures[m][chunk_no].push_back(
        ChunkEntry{offset, measures[m]});
  }
  if (metric_writes_ != nullptr) metric_writes_->Increment();
  return Status::OK();
}

std::string IngestManager::SerializeState(
    uint64_t applied, uint64_t next_seq,
    const std::vector<LiveGeneration>& live) const {
  std::string out;
  out.append(kStateMagic, sizeof(kStateMagic));
  out.push_back(static_cast<char>(kStateVersion));
  AppendFixed64(&out, applied);
  AppendFixed64(&out, next_seq);
  AppendFixed32(&out, static_cast<uint32_t>(live.size()));
  for (const LiveGeneration& g : live) {
    AppendFixed64(&out, g.seq);
    AppendFixed64(&out, g.oid);
  }
  return out;
}

Status ParseIngestState(const std::string& blob, uint64_t* applied,
                        uint64_t* next_seq,
                        std::vector<std::pair<uint64_t, ObjectId>>* gens) {
  if (blob.size() < 25 ||
      std::memcmp(blob.data(), kStateMagic, sizeof(kStateMagic)) != 0) {
    return Status::Corruption("object is not an ingest state blob");
  }
  const uint8_t version = static_cast<uint8_t>(blob[4]);
  if (version != kStateVersion) {
    return Status::NotSupported("ingest state version " +
                                std::to_string(version) +
                                " is newer than this build supports (max " +
                                std::to_string(kStateVersion) + ")");
  }
  *applied = DecodeFixed64(blob.data() + 5);
  *next_seq = DecodeFixed64(blob.data() + 13);
  const uint32_t count = DecodeFixed32(blob.data() + 21);
  if (blob.size() != 25 + static_cast<size_t>(count) * 16) {
    return Status::Corruption("ingest state blob size mismatch");
  }
  gens->clear();
  gens->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const char* p = blob.data() + 25 + static_cast<size_t>(i) * 16;
    gens->emplace_back(DecodeFixed64(p), DecodeFixed64(p + 8));
  }
  return Status::OK();
}

Status IngestManager::Commit() {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t cells = pending_.total_cells();
  if (cells == 0) return Status::OK();
  StorageManager* storage = db_->storage();

  // 1. Spill the generation copy-on-write and root it. Nothing here is
  //    visible to recovery until the checkpoint below commits the catalog.
  const uint64_t seq = next_seq_;
  pending_.seq = seq;
  PARADISE_ASSIGN_OR_RETURN(ObjectId gen_oid,
                            storage->objects()->Create(pending_.Serialize()));
  PARADISE_RETURN_IF_ERROR(
      storage->SetRoot(IngestGenerationRootName(seq), gen_oid));

  // 2. New state object listing the enlarged generation set.
  std::vector<LiveGeneration> new_live = live_;
  new_live.push_back(LiveGeneration{seq, gen_oid});
  PARADISE_ASSIGN_OR_RETURN(
      ObjectId new_state,
      storage->objects()->Create(
          SerializeState(applied_cells_ + cells, seq + 1, new_live)));
  PARADISE_RETURN_IF_ERROR(storage->SetRoot(kStateRoot, new_state));

  // 3. Adopt the new in-memory state, the overlays the newest epoch will
  //    serve included: a publish that fails leaves the batch folded in, for
  //    the next commit to publish.
  overlays_ = FoldGeneration(overlays_, std::move(pending_));
  pending_ = DeltaGeneration(num_measures_);
  live_ = std::move(new_live);
  next_seq_ = seq + 1;
  applied_cells_ += cells;
  const ObjectId old_state = state_oid_;
  state_oid_ = new_state;
  // Raised before the publish: a reader that pins the new epoch sees it.
  ingested_.store(true);

  // 4. Commit point: the manifest write publishes the new epoch, and the
  //    overlay swap lands under the same pin lock so no reader can pair the
  //    new epoch with the old data (or vice versa).
  PARADISE_RETURN_IF_ERROR(db_->PublishIngest([&]() -> Status {
    OlapArray* olap = db_->olap();
    for (size_t m = 0; m < num_measures_; ++m) {
      olap->mutable_array(m)->PublishOverlay(overlays_[m]);
    }
    return Status::OK();
  }));

  // 5. The previous state object is unreferenced as of the epoch just
  //    committed; freeing it now at worst leaks pages on a crash.
  if (old_state != kInvalidObjectId) FreeBestEffort(old_state);
  ++commits_;
  if (metric_commits_ != nullptr) metric_commits_->Increment();
  if (metric_committed_cells_ != nullptr) {
    metric_committed_cells_->Increment(cells);
  }
  return ReclaimRetiredLocked();
}

Status IngestManager::Recover() {
  std::lock_guard<std::mutex> lk(mu_);
  StorageManager* storage = db_->storage();
  PARADISE_ASSIGN_OR_RETURN(uint64_t state_oid,
                            storage->GetRoot(kStateRoot));
  PARADISE_ASSIGN_OR_RETURN(std::string blob,
                            storage->objects()->Read(state_oid));
  uint64_t applied = 0;
  uint64_t next_seq = 0;
  std::vector<std::pair<uint64_t, ObjectId>> gens;
  PARADISE_RETURN_IF_ERROR(ParseIngestState(blob, &applied, &next_seq, &gens));

  std::vector<LiveGeneration> live;
  live.reserve(gens.size());
  for (const auto& [seq, oid] : gens) {
    PARADISE_ASSIGN_OR_RETURN(std::string gen_blob,
                              storage->objects()->Read(oid));
    PARADISE_ASSIGN_OR_RETURN(DeltaGeneration gen,
                              DeltaGeneration::Deserialize(gen_blob));
    if (gen.seq != seq) {
      return Status::Corruption(
          "ingest generation " + std::to_string(seq) +
          " carries sequence " + std::to_string(gen.seq));
    }
    overlays_ = FoldGeneration(overlays_, std::move(gen));
    live.push_back(LiveGeneration{seq, oid});
  }
  state_oid_ = state_oid;
  applied_cells_ = applied;
  next_seq_ = next_seq;
  live_ = std::move(live);
  ingested_.store(applied > 0);

  // Republish: Open runs single-threaded before any reader exists, so the
  // overlays can swap in directly.
  OlapArray* olap = db_->olap();
  for (size_t m = 0; m < num_measures_; ++m) {
    olap->mutable_array(m)->PublishOverlay(overlays_[m]);
  }
  return Status::OK();
}

bool IngestManager::ingested() const {
  return ingested_.load();
}

uint64_t IngestManager::pending_cells() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.total_cells();
}

uint64_t IngestManager::applied_cells() const {
  std::lock_guard<std::mutex> lk(mu_);
  return applied_cells_;
}

IngestManager::Stats IngestManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.pending_cells = pending_.total_cells();
  s.applied_cells = applied_cells_;
  s.live_generations = live_.size();
  for (const auto& overlay : overlays_) {
    if (overlay != nullptr) s.overlay_cells += overlay->total_cells();
  }
  s.commits = commits_;
  s.compactions = compactions_;
  s.compactions_cancelled = compactions_cancelled_;
  s.retired_pending = graveyard_.size();
  return s;
}

void IngestManager::FreeBestEffort(ObjectId oid) {
  // Post-checkpoint frees: a failure (or a crash mid-free) merely leaks
  // pages, which dbverify tolerates; it never corrupts committed state.
  (void)db_->storage()->objects()->Free(oid);
}

}  // namespace paradise
