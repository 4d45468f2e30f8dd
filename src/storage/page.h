// Page identifiers and the on-disk database-file header layout shared by the
// disk manager and the buffer pool.
#pragma once

#include <cstdint>
#include <limits>

namespace paradise {

/// Physical page number within the database file. Page 0 is the file header
/// and is never handed out by the allocator.
using PageId = uint64_t;

inline constexpr PageId kInvalidPageId = std::numeric_limits<PageId>::max();

/// Object identifier for a large object: the PageId of its header page.
using ObjectId = PageId;

inline constexpr ObjectId kInvalidObjectId = kInvalidPageId;

namespace page_header {

// Layout of the database-file header (page 0), all little-endian:
//   [0,8)   magic "PRDSARRY"
//   [8,12)  page size
//   [12,20) page count (including the header page)
//   [20,28) free-list head PageId (kInvalidPageId if empty)
//   [28,36) root-catalog ObjectId (kInvalidObjectId if absent)
//   [36,40) format version (always kFormatVersion; any other value is
//           rejected with NotSupported)
//
// Only the header's magic, page size and version are read back: the page
// count, free-list head and catalog oid are a snapshot from Create(), and
// the committed manifest (below) is authoritative for all three.
inline constexpr char kMagic[8] = {'P', 'R', 'D', 'S', 'A', 'R', 'R', 'Y'};
inline constexpr size_t kMagicOffset = 0;
inline constexpr size_t kPageSizeOffset = 8;
inline constexpr size_t kPageCountOffset = 12;
inline constexpr size_t kFreeListOffset = 20;
inline constexpr size_t kCatalogOffset = 28;
inline constexpr size_t kVersionOffset = 36;
inline constexpr size_t kHeaderBytes = 40;

/// The one on-disk format this build reads and writes. Every physical page
/// carries a kPageTrailerBytes CRC trailer (DESIGN.md "Page format"), pages
/// 1 and 2 are the dual-slot commit manifest (DESIGN.md "Crash
/// consistency"), the catalog may hold incremental-ingest roots
/// (src/ingest/) and OLAP arrays may store diff-sequence chunks
/// (array/chunk.cc). The number is 5 because four earlier formats shared
/// this header; none of them is readable any more.
inline constexpr uint32_t kFormatVersion = 5;

// Per-page trailer, appended after the page's page_size data bytes:
//   [0,4)  masked CRC32C over (data bytes || fixed64 PageId)
//   [4,8)  reserved, written as zero
inline constexpr size_t kPageTrailerBytes = 8;

/// Distance in bytes between the starts of consecutive physical pages.
inline constexpr uint64_t PhysicalStride(size_t page_size) {
  return page_size + kPageTrailerBytes;
}

// Dual-slot commit manifest. Pages 1 and 2 each hold one manifest record;
// a commit with epoch E writes slot page ManifestSlotPage(E), so successive
// commits alternate slots and a torn manifest write can only damage the slot
// being written, never the previously committed one. Open() parses both
// slots raw (ignoring the page trailer, which a torn write may also have
// damaged) and adopts the record with the highest epoch whose internal CRC
// validates. Record layout, little-endian:
//   [0,8)   magic "PRDSMNFS"
//   [8,16)  commit epoch (monotonic, starts at 1 for Create's commit)
//   [16,24) page count (including header + manifest pages)
//   [24,32) free-list head PageId (kInvalidPageId if empty)
//   [32,40) root-catalog ObjectId (kInvalidObjectId if absent)
//   [40,44) load state (kLoadCommitted / kLoadBuilding)
//   [44,48) masked CRC32C over bytes [0,44)
inline constexpr char kManifestMagic[8] = {'P', 'R', 'D', 'S',
                                           'M', 'N', 'F', 'S'};
inline constexpr size_t kManifestMagicOffset = 0;
inline constexpr size_t kManifestEpochOffset = 8;
inline constexpr size_t kManifestPageCountOffset = 16;
inline constexpr size_t kManifestFreeListOffset = 24;
inline constexpr size_t kManifestCatalogOffset = 32;
inline constexpr size_t kManifestLoadStateOffset = 40;
inline constexpr size_t kManifestCrcOffset = 44;
inline constexpr size_t kManifestBytes = 48;

inline constexpr PageId kManifestSlotPages[2] = {1, 2};

/// Slot page written by the commit with the given epoch.
inline constexpr PageId ManifestSlotPage(uint64_t epoch) {
  return kManifestSlotPages[epoch & 1];
}

/// Load-state values carried in the manifest: a database file is `building`
/// from Database::Create until FinishLoad's final commit marks it
/// `committed`; Open() on a building file reports an incomplete load.
inline constexpr uint32_t kLoadCommitted = 0;
inline constexpr uint32_t kLoadBuilding = 1;

/// First PageId the allocator may hand out: the header and the two manifest
/// slot pages come first.
inline constexpr PageId kFirstUserPage = 3;

}  // namespace page_header

}  // namespace paradise
