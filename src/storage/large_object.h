// LargeObjectStore: variable-length byte objects spanning many pages, the
// library's stand-in for SHORE large objects. Array chunks, bitmaps, and
// serialized metadata are all stored as large objects. An object is
// addressed by the PageId of its header page, which holds the length and a
// (possibly chained) directory of data-page ids.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace paradise {

class LargeObjectStore {
 public:
  explicit LargeObjectStore(BufferPool* pool) : pool_(pool) {}

  /// Creates a new object holding `data`; returns its ObjectId.
  Result<ObjectId> Create(std::string_view data);

  /// Reads the whole object into a string.
  Result<std::string> Read(ObjectId oid) const;

  /// Reads `length` bytes starting at `offset`. Out-of-range reads fail.
  /// Decodes only the directory entries of the pages the range covers,
  /// following the overflow chain no further than the page listing the
  /// range's last id.
  Result<std::string> ReadRange(ObjectId oid, uint64_t offset,
                                uint64_t length) const;

  /// Byte length of the object.
  Result<uint64_t> Size(ObjectId oid) const;

  /// Replaces the object's contents in place (same ObjectId). The old data
  /// pages are freed and new ones allocated.
  Status Overwrite(ObjectId oid, std::string_view data);

  /// Frees the object's pages (header, directory chain, and data).
  Status Free(ObjectId oid);

  /// Number of pages the object occupies, including header and directory
  /// pages (for storage accounting in the benches).
  Result<uint64_t> PageFootprint(ObjectId oid) const;

 private:
  /// Collects the data-page ids and directory-page ids of an object.
  /// Directory counts that overrun their page or the object are Corruption.
  Status CollectPages(ObjectId oid, uint64_t* length,
                      std::vector<PageId>* data_pages,
                      std::vector<PageId>* directory_pages) const;

  /// Writes the page-id directory (header + overflow chain) for `data_pages`
  /// into object `oid`, allocating overflow pages as needed.
  Status WriteDirectory(ObjectId oid, uint64_t length,
                        const std::vector<PageId>& data_pages);

  BufferPool* pool_;
};

}  // namespace paradise
