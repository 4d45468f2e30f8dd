// Storage scrub: a read-only consistency pass over an open StorageManager.
// Walks every physical page (verifying checksums), walks the
// free list detecting cycles and out-of-range links, and checks the
// manifest-level invariants (load state, pointer bounds). Used by the
// optional StorageOptions::scrub_on_open startup pass and by the dbverify
// tool (schema/db_verify.h), which layers database-level cross-checks on
// top.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace paradise {

class StorageManager;

/// Findings of a scrub pass. `issues` is empty for a consistent file; each
/// entry is a self-contained human-readable description.
struct ScrubReport {
  uint64_t pages_scanned = 0;
  uint64_t pages_corrupt = 0;
  /// Pages collected from the free-list walk, in list order.
  std::vector<PageId> free_pages;
  std::vector<std::string> issues;

  bool clean() const { return issues.empty(); }
};

/// Scrubs the storage below `storage`, which must be open. Returns non-OK
/// only when the scrub itself cannot run (e.g. storage closed); consistency
/// problems are reported through `report->issues`, so a caller can both see
/// every finding and decide severity itself.
Status ScrubStorage(StorageManager* storage, ScrubReport* report);

}  // namespace paradise
