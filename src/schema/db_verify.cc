#include "schema/db_verify.h"

#include <map>
#include <unordered_set>
#include <utility>

#include "ingest/delta_store.h"
#include "ingest/ingest.h"
#include "storage/disk_manager.h"
#include "storage/storage_manager.h"

namespace paradise {

namespace {

/// Why `delta` cannot be merged into a chunk of `capacity` cells by the
/// scan kernel's forward cursor, or "" when it can.
std::string CheckChunkDelta(const ChunkDelta& delta, uint32_t capacity) {
  for (size_t i = 0; i < delta.cells.size(); ++i) {
    const uint32_t offset = delta.cells[i].offset;
    if (offset >= capacity) {
      return "offset " + std::to_string(offset) + " beyond capacity " +
             std::to_string(capacity);
    }
    if (i > 0 && offset <= delta.cells[i - 1].offset) {
      return "offset " + std::to_string(offset) + " follows " +
             std::to_string(delta.cells[i - 1].offset) +
             " (not strictly increasing)";
    }
  }
  return "";
}

}  // namespace

std::vector<std::string> VerifyReport::AllIssues() const {
  std::vector<std::string> all = scrub.issues;
  all.insert(all.end(), issues.begin(), issues.end());
  return all;
}

Result<VerifyReport> VerifyDatabase(const std::string& path,
                                    DatabaseOptions options) {
  options.storage.read_only = true;
  options.storage.allow_overwrite = false;
  VerifyReport report;

  // Stage 1: storage-level scrub (page checksums, free list, manifest
  // invariants) plus catalog bounds. A file that will not even open at this
  // level is itself a finding, not a tool failure.
  {
    StorageManager storage;
    Status st = storage.Open(path, options.storage);
    if (!st.ok()) {
      report.issues.push_back("storage open failed: " + st.ToString());
      return report;
    }
    PARADISE_RETURN_IF_ERROR(ScrubStorage(&storage, &report.scrub));
    report.page_count = storage.disk()->page_count();
    report.catalog_entries = storage.catalog().size();
    const PageId first_user = page_header::kFirstUserPage;
    // Every catalog root is a PageId or ObjectId (the PageId of an object
    // header), so all of them must land inside the file's user area.
    for (const auto& [name, value] : storage.catalog()) {
      if (value < first_user || value >= report.page_count) {
        report.issues.push_back("catalog entry '" + name +
                                "' points to page " + std::to_string(value) +
                                " outside the file");
      }
    }
    PARADISE_RETURN_IF_ERROR(storage.Close());
  }

  // Stage 2: open the full database (read-only) and cross-check the fact
  // file's extent map against the free list and reserved pages.
  Result<std::unique_ptr<Database>> db_or = Database::Open(path, options);
  if (!db_or.ok()) {
    report.issues.push_back("database open failed: " +
                            db_or.status().ToString());
    return report;
  }
  Database* db = db_or.value().get();
  const uint64_t page_count = db->storage()->disk()->page_count();
  const PageId first_user = page_header::kFirstUserPage;

  std::map<PageId, std::string> claims;
  auto claim = [&](PageId id, const std::string& what) {
    if (id < first_user || id >= page_count) {
      report.issues.push_back(what + " page " + std::to_string(id) +
                              " lies outside the file");
      return;
    }
    auto [it, fresh] = claims.emplace(id, what);
    if (!fresh) {
      report.issues.push_back("page " + std::to_string(id) +
                              " claimed by both " + it->second + " and " +
                              what);
    }
  };

  const ExtentAllocator& extents = db->fact()->extent_allocator();
  claim(db->fact()->meta_page(), "fact meta");
  for (PageId dir : extents.directory_pages()) {
    claim(dir, "fact extent directory");
  }
  const uint32_t per_extent = extents.pages_per_extent();
  for (size_t k = 0; k < extents.extent_firsts().size(); ++k) {
    const PageId first = extents.extent_firsts()[k];
    for (uint32_t i = 0; i < per_extent; ++i) {
      claim(first + i, "fact extent " + std::to_string(k));
    }
  }

  // No page may be both structurally owned and on the free list — that is
  // how a double free (or a stale free list from a lost commit) shows up.
  for (PageId free_page : report.scrub.free_pages) {
    auto it = claims.find(free_page);
    if (it != claims.end()) {
      report.issues.push_back("page " + std::to_string(free_page) +
                              " is on the free list but owned by " +
                              it->second);
    }
  }

  // Every fact tuple must be reachable through the extent map and
  // checksum-clean.
  uint64_t tuples = 0;
  Status scan = db->fact()->ScanAll(
      [&](uint64_t, const char*) {
        ++tuples;
        return Status::OK();
      });
  if (!scan.ok()) {
    report.issues.push_back("fact scan failed: " + scan.ToString());
  }
  report.fact_tuples = tuples;

  // Stage 2b: per-chunk codec validation. Database::Open only reads the
  // array's directory, so a chunk whose serialized codec is damaged —
  // an unknown tag byte, a truncated diff-sequence stream, out-of-order or
  // out-of-bounds offsets — would otherwise surface only mid-query. Every
  // non-empty base chunk must parse as a view (header + exact stream sizes),
  // deep-decode cleanly (Chunk::Deserialize re-validates strict offset order
  // and capacity bounds cell by cell) and decode to exactly the valid count
  // the directory lists. Overlay deltas are checked on their own, the way
  // the scan kernel consumes them: strictly increasing offsets, each inside
  // the chunk.
  if (db->has_olap()) {
    const ChunkLayout& layout = db->olap()->layout();
    for (size_t m = 0; m < db->olap()->num_measures(); ++m) {
      const ChunkedArray& array = db->olap()->array(m);
      for (uint64_t c = 0; c < layout.num_chunks(); ++c) {
        if (array.ChunkIsEmpty(c)) continue;
        const std::string where = "measure " + std::to_string(m) + " chunk " +
                                  std::to_string(c);
        Result<ChunkedArray::ChunkParts> parts = array.ReadChunkParts(c);
        if (!parts.ok()) {
          report.issues.push_back(where + " unreadable: " +
                                  parts.status().ToString());
          continue;
        }
        const uint32_t capacity = layout.ChunkCellCount(c);
        if (const ChunkDelta* delta = parts->delta; delta != nullptr) {
          const std::string issue = CheckChunkDelta(*delta, capacity);
          if (!issue.empty()) {
            report.issues.push_back(where + " delta " + issue);
            continue;
          }
        }
        const uint32_t listed = array.ChunkValidCount(c);
        uint32_t decoded = 0;
        if (!parts->base.empty()) {
          Result<Chunk> chunk = Chunk::Deserialize(parts->base);
          if (!chunk.ok()) {
            report.issues.push_back(where + " codec rejected: " +
                                    chunk.status().ToString());
            continue;
          }
          if (chunk->capacity() != capacity) {
            report.issues.push_back(
                where + " stores capacity " +
                std::to_string(chunk->capacity()) +
                " but the layout says " + std::to_string(capacity));
            continue;
          }
          decoded = chunk->num_valid();
        }
        if (decoded != listed) {
          report.issues.push_back(where + " decodes " +
                                  std::to_string(decoded) +
                                  " cells but the directory lists " +
                                  std::to_string(listed));
          continue;
        }
        ++report.chunks_verified;
      }
    }
  }

  // Stage 3: ingest state. The "ingest.state" object must parse, every
  // generation it lists must have a matching catalog root and a decodable
  // delta blob whose cells land inside the array, and no orphan
  // "ingest.delta.*" root may exist outside the state's list (the commit
  // protocol publishes both in one checkpoint, so a committed catalog can
  // never disagree with itself).
  if (db->storage()->HasRoot(IngestStateRootName())) {
    do {
      Result<uint64_t> state_oid = db->storage()->GetRoot(IngestStateRootName());
      if (!state_oid.ok()) {
        report.issues.push_back("ingest state root unreadable: " +
                                state_oid.status().ToString());
        break;
      }
      Result<std::string> blob = db->storage()->objects()->Read(*state_oid);
      if (!blob.ok()) {
        report.issues.push_back("ingest state object unreadable: " +
                                blob.status().ToString());
        break;
      }
      uint64_t applied = 0;
      uint64_t next_seq = 0;
      std::vector<std::pair<uint64_t, ObjectId>> gens;
      Status parsed = ParseIngestState(*blob, &applied, &next_seq, &gens);
      if (!parsed.ok()) {
        report.issues.push_back("ingest state rejected: " + parsed.ToString());
        break;
      }
      report.ingest_applied_cells = applied;
      report.ingest_generations = gens.size();
      std::unordered_set<uint64_t> listed;
      for (const auto& [seq, oid] : gens) {
        listed.insert(seq);
        if (seq >= next_seq) {
          report.issues.push_back("ingest generation " + std::to_string(seq) +
                                  " is at or beyond next sequence " +
                                  std::to_string(next_seq));
        }
        const std::string root = IngestGenerationRootName(seq);
        Result<uint64_t> root_oid = db->storage()->GetRoot(root);
        if (!root_oid.ok()) {
          report.issues.push_back("ingest state lists generation " +
                                  std::to_string(seq) +
                                  " but catalog root '" + root +
                                  "' is missing");
        } else if (*root_oid != oid) {
          report.issues.push_back(
              "ingest generation " + std::to_string(seq) + " root points at " +
              std::to_string(*root_oid) + " but the state lists " +
              std::to_string(oid));
        }
        Result<std::string> gen_blob = db->storage()->objects()->Read(oid);
        if (!gen_blob.ok()) {
          report.issues.push_back("ingest generation " + std::to_string(seq) +
                                  " object unreadable: " +
                                  gen_blob.status().ToString());
          continue;
        }
        Result<DeltaGeneration> gen = DeltaGeneration::Deserialize(*gen_blob);
        if (!gen.ok()) {
          report.issues.push_back("ingest generation " + std::to_string(seq) +
                                  " rejected: " + gen.status().ToString());
          continue;
        }
        if (gen->seq != seq) {
          report.issues.push_back("ingest generation " + std::to_string(seq) +
                                  " carries sequence " +
                                  std::to_string(gen->seq));
        }
        if (db->has_olap()) {
          const ChunkLayout& layout = db->olap()->layout();
          if (gen->measures.size() != db->olap()->num_measures()) {
            report.issues.push_back(
                "ingest generation " + std::to_string(seq) + " has " +
                std::to_string(gen->measures.size()) + " measures, array has " +
                std::to_string(db->olap()->num_measures()));
          }
          for (const auto& chunks : gen->measures) {
            for (const auto& [chunk_no, cells] : chunks) {
              if (chunk_no >= layout.num_chunks()) {
                report.issues.push_back(
                    "ingest generation " + std::to_string(seq) +
                    " touches chunk " + std::to_string(chunk_no) +
                    " beyond the array's " +
                    std::to_string(layout.num_chunks()) + " chunks");
                continue;
              }
              const uint32_t capacity = layout.ChunkCellCount(chunk_no);
              for (const ChunkEntry& e : cells) {
                if (e.offset >= capacity) {
                  report.issues.push_back(
                      "ingest generation " + std::to_string(seq) + " chunk " +
                      std::to_string(chunk_no) + " writes offset " +
                      std::to_string(e.offset) + " beyond capacity " +
                      std::to_string(capacity));
                }
              }
              report.ingest_overlay_cells += cells.size();
            }
          }
        }
      }
      for (const auto& [name, value] : db->storage()->catalog()) {
        uint64_t seq = 0;
        if (IsIngestGenerationRoot(name, &seq) && !listed.contains(seq)) {
          report.issues.push_back("catalog root '" + name +
                                  "' is not listed in the ingest state");
        }
      }
    } while (false);
  } else {
    // No state root: any generation root is an orphan.
    for (const auto& [name, value] : db->storage()->catalog()) {
      if (IsIngestGenerationRoot(name, nullptr)) {
        report.issues.push_back("catalog root '" + name +
                                "' has no ingest state");
      }
    }
  }
  return report;
}

Result<VerifyReport> VerifyDatabaseFile(const std::string& path) {
  Result<StorageOptions> storage_or = ProbeStorageOptions(path);
  if (!storage_or.ok()) {
    // A recognizable paradise header carrying a page-format version other
    // than kFormatVersion (NotSupported) is itself a finding: dbverify
    // reports the typed rejection instead of ever opening a file it might
    // misread. Anything else — missing file, truncation, wrong magic — is
    // not a paradise database at all, so the tool fails rather than report.
    if (storage_or.status().IsNotSupported()) {
      VerifyReport report;
      report.issues.push_back("file header rejected: " +
                              storage_or.status().ToString());
      return report;
    }
    return storage_or.status();
  }
  DatabaseOptions options;
  options.storage = std::move(storage_or).value();
  return VerifyDatabase(path, options);
}

}  // namespace paradise
