#include "storage/scrub.h"

#include <unordered_set>
#include <vector>

#include "common/coding.h"
#include "storage/disk_manager.h"
#include "storage/storage_manager.h"

namespace paradise {

Status ScrubStorage(StorageManager* storage, ScrubReport* report) {
  *report = ScrubReport{};
  if (storage == nullptr || !storage->is_open()) {
    return Status::InvalidArgument("scrub requires an open storage manager");
  }
  Disk* disk = storage->disk();
  const uint64_t page_count = disk->page_count();
  const PageId first_user = page_header::kFirstUserPage;
  std::vector<char> buf(disk->page_size());

  // Pass 1: every page must read back (checksum-clean). The header
  // (page 0) was already validated at Open; manifest slots are exempt from
  // page checksums (they are self-validating and torn slots are legal), so
  // the walk starts at the first user page.
  for (PageId id = first_user; id < page_count; ++id) {
    ++report->pages_scanned;
    Status st = disk->ReadPage(id, buf.data());
    if (!st.ok()) {
      ++report->pages_corrupt;
      report->issues.push_back(st.ToString());
    }
  }

  // Pass 2: free-list walk. Detects out-of-range links and cycles; collects
  // the free set for cross-checks against structures that claim pages.
  std::unordered_set<PageId> seen;
  PageId next = disk->free_list_head();
  while (next != kInvalidPageId) {
    if (next < first_user || next >= page_count) {
      report->issues.push_back("free list links to invalid page " +
                               std::to_string(next));
      break;
    }
    if (!seen.insert(next).second) {
      report->issues.push_back("free list cycles back to page " +
                               std::to_string(next));
      break;
    }
    report->free_pages.push_back(next);
    Status st = disk->ReadPage(next, buf.data());
    if (!st.ok()) {
      report->issues.push_back("free page " + std::to_string(next) +
                               " unreadable: " + st.ToString());
      break;
    }
    next = DecodeFixed64(buf.data());
  }

  // Pass 3: manifest-level invariants.
  if (disk->load_state() == page_header::kLoadBuilding) {
    report->issues.push_back(
        "incomplete load: the file is durably marked mid-load and was never "
        "committed; rebuild it from the source data");
  }
  const ObjectId catalog_oid = disk->catalog_oid();
  if (catalog_oid != kInvalidObjectId &&
      (catalog_oid < first_user || catalog_oid >= page_count)) {
    report->issues.push_back("catalog object id " +
                             std::to_string(catalog_oid) +
                             " lies outside the file");
  }
  return Status::OK();
}

}  // namespace paradise
