#include "storage/large_object.h"

#include <algorithm>
#include <cstring>

#include "common/coding.h"

namespace paradise {

namespace {

// Header page layout:
//   [0,4)   magic "LOBH"
//   [4,12)  object length in bytes
//   [12,16) total data-page count
//   [16,24) next directory PageId (kInvalidPageId if none)
//   [24,28) number of data-page ids stored in this page
//   [28,..) data-page ids, 8 bytes each
// Overflow directory page layout:
//   [0,8)   next directory PageId
//   [8,12)  number of ids in this page
//   [12,..) data-page ids
constexpr char kLobMagic[4] = {'L', 'O', 'B', 'H'};
constexpr size_t kHeaderMagic = 0;
constexpr size_t kHeaderLength = 4;
constexpr size_t kHeaderPageCount = 12;
constexpr size_t kHeaderNextDir = 16;
constexpr size_t kHeaderIdCount = 24;
constexpr size_t kHeaderIdsStart = 28;
constexpr size_t kDirNext = 0;
constexpr size_t kDirIdCount = 8;
constexpr size_t kDirIdsStart = 12;

size_t HeaderIdCapacity(size_t page_size) {
  return (page_size - kHeaderIdsStart) / 8;
}
size_t DirIdCapacity(size_t page_size) {
  return (page_size - kDirIdsStart) / 8;
}

// Walks an object's page-id directory one directory page at a time: the
// header first, then the overflow chain. Every count read from disk is
// checked before an id is decoded: a page lists no more ids than it can hold,
// an overflow page lists at least one, and the directory never lists more
// pages than the header's total. So a damaged directory is Corruption, never
// a read past the page frame or an endless walk round a cyclic chain. The
// current directory page stays pinned until the walk is destroyed.
class DirectoryWalk {
 public:
  static Result<DirectoryWalk> Start(BufferPool* pool, ObjectId oid) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard header, pool->FetchPage(oid));
    const char* h = header.data();
    if (std::memcmp(h + kHeaderMagic, kLobMagic, sizeof(kLobMagic)) != 0) {
      return Status::Corruption("not a large object: page " +
                                std::to_string(oid));
    }
    DirectoryWalk walk(pool, oid, std::move(header));
    walk.length_ = DecodeFixed64(h + kHeaderLength);
    walk.total_pages_ = DecodeFixed32(h + kHeaderPageCount);
    walk.next_ = DecodeFixed64(h + kHeaderNextDir);
    walk.count_ = DecodeFixed32(h + kHeaderIdCount);
    walk.ids_ = h + kHeaderIdsStart;
    const size_t page_size = pool->page_size();
    const uint64_t pages_for_length =
        walk.length_ / page_size + (walk.length_ % page_size != 0 ? 1 : 0);
    if (pages_for_length != walk.total_pages_) {
      return Status::Corruption(
          "large object " + std::to_string(oid) + " of " +
          std::to_string(walk.length_) + " bytes claims " +
          std::to_string(walk.total_pages_) + " data pages");
    }
    PARADISE_RETURN_IF_ERROR(
        walk.CheckCount(oid, HeaderIdCapacity(page_size), 0));
    return walk;
  }

  uint64_t length() const { return length_; }
  uint32_t total_pages() const { return total_pages_; }
  /// The directory page the walk stands on.
  PageId page() const { return guard_.page_id(); }
  /// Object-wide index of the first data page this directory page lists.
  uint64_t first() const { return first_; }
  /// Number of data-page ids this directory page lists.
  uint32_t count() const { return count_; }
  /// Id of the data page with object-wide index `first() + i`.
  PageId id(uint32_t i) const { return DecodeFixed64(ids_ + i * 8); }
  bool at_end() const { return next_ == kInvalidPageId; }

  /// Moves to the next overflow directory page; at_end() must be false.
  Status Next() {
    PARADISE_ASSIGN_OR_RETURN(guard_, pool_->FetchPage(next_));
    const char* p = guard_.data();
    first_ += count_;
    next_ = DecodeFixed64(p + kDirNext);
    count_ = DecodeFixed32(p + kDirIdCount);
    ids_ = p + kDirIdsStart;
    return CheckCount(guard_.page_id(), DirIdCapacity(pool_->page_size()), 1);
  }

 private:
  DirectoryWalk(BufferPool* pool, ObjectId oid, PageGuard header)
      : pool_(pool), oid_(oid), guard_(std::move(header)) {}

  Status CheckCount(PageId dir, size_t capacity, uint32_t min_count) const {
    if (count_ < min_count || count_ > capacity ||
        count_ > total_pages_ - first_) {
      return Status::Corruption(
          "large object " + std::to_string(oid_) + " directory page " +
          std::to_string(dir) + " lists " + std::to_string(count_) +
          " page ids (page holds " + std::to_string(capacity) + ", " +
          std::to_string(total_pages_ - first_) + " of the object's " +
          std::to_string(total_pages_) + " pages left to list)");
    }
    return Status::OK();
  }

  BufferPool* pool_;
  ObjectId oid_;
  PageGuard guard_;
  uint64_t length_ = 0;
  uint32_t total_pages_ = 0;
  uint64_t first_ = 0;
  uint32_t count_ = 0;
  const char* ids_ = nullptr;
  PageId next_ = kInvalidPageId;
};

}  // namespace

Result<ObjectId> LargeObjectStore::Create(std::string_view data) {
  const size_t page_size = pool_->page_size();
  const uint64_t num_data_pages = (data.size() + page_size - 1) / page_size;

  // Write the data pages.
  std::vector<PageId> data_pages;
  data_pages.reserve(num_data_pages);
  for (uint64_t i = 0; i < num_data_pages; ++i) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
    const uint64_t begin = i * page_size;
    const uint64_t n = std::min<uint64_t>(page_size, data.size() - begin);
    std::memcpy(guard.mutable_data(), data.data() + begin, n);
    data_pages.push_back(guard.page_id());
  }

  // Allocate and fill the header (plus overflow directory chain).
  PARADISE_ASSIGN_OR_RETURN(PageGuard header, pool_->NewPage());
  const ObjectId oid = header.page_id();
  header.Release();
  PARADISE_RETURN_IF_ERROR(WriteDirectory(oid, data.size(), data_pages));
  return oid;
}

Status LargeObjectStore::WriteDirectory(ObjectId oid, uint64_t length,
                                        const std::vector<PageId>& data_pages) {
  const size_t page_size = pool_->page_size();
  const size_t header_cap = HeaderIdCapacity(page_size);
  const size_t dir_cap = DirIdCapacity(page_size);

  // Allocate overflow pages first so the header can point at the chain head.
  size_t remaining =
      data_pages.size() > header_cap ? data_pages.size() - header_cap : 0;
  const size_t num_dir_pages = (remaining + dir_cap - 1) / dir_cap;
  std::vector<PageId> dir_pages(num_dir_pages);
  for (size_t i = 0; i < num_dir_pages; ++i) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard g, pool_->NewPage());
    dir_pages[i] = g.page_id();
  }

  {
    PARADISE_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(oid));
    char* h = header.mutable_data();
    std::memset(h, 0, page_size);
    std::memcpy(h + kHeaderMagic, kLobMagic, sizeof(kLobMagic));
    EncodeFixed64(h + kHeaderLength, length);
    EncodeFixed32(h + kHeaderPageCount,
                  static_cast<uint32_t>(data_pages.size()));
    EncodeFixed64(h + kHeaderNextDir,
                  dir_pages.empty() ? kInvalidPageId : dir_pages[0]);
    const size_t in_header = std::min(header_cap, data_pages.size());
    EncodeFixed32(h + kHeaderIdCount, static_cast<uint32_t>(in_header));
    for (size_t i = 0; i < in_header; ++i) {
      EncodeFixed64(h + kHeaderIdsStart + i * 8, data_pages[i]);
    }
  }

  size_t next_id = header_cap;
  for (size_t d = 0; d < num_dir_pages; ++d) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(dir_pages[d]));
    char* p = g.mutable_data();
    std::memset(p, 0, page_size);
    EncodeFixed64(p + kDirNext,
                  d + 1 < num_dir_pages ? dir_pages[d + 1] : kInvalidPageId);
    const size_t in_page = std::min(dir_cap, data_pages.size() - next_id);
    EncodeFixed32(p + kDirIdCount, static_cast<uint32_t>(in_page));
    for (size_t i = 0; i < in_page; ++i) {
      EncodeFixed64(p + kDirIdsStart + i * 8, data_pages[next_id + i]);
    }
    next_id += in_page;
  }
  return Status::OK();
}

Status LargeObjectStore::CollectPages(
    ObjectId oid, uint64_t* length, std::vector<PageId>* data_pages,
    std::vector<PageId>* directory_pages) const {
  data_pages->clear();
  if (directory_pages != nullptr) directory_pages->clear();
  PARADISE_ASSIGN_OR_RETURN(DirectoryWalk walk,
                            DirectoryWalk::Start(pool_, oid));
  *length = walk.length();
  data_pages->reserve(walk.total_pages());
  for (;;) {
    for (uint32_t i = 0; i < walk.count(); ++i) {
      data_pages->push_back(walk.id(i));
    }
    if (walk.at_end()) break;
    PARADISE_RETURN_IF_ERROR(walk.Next());
    if (directory_pages != nullptr) directory_pages->push_back(walk.page());
  }
  if (data_pages->size() != walk.total_pages()) {
    return Status::Corruption("large object " + std::to_string(oid) +
                              " directory lists " +
                              std::to_string(data_pages->size()) +
                              " pages, header says " +
                              std::to_string(walk.total_pages()));
  }
  return Status::OK();
}

Result<std::string> LargeObjectStore::Read(ObjectId oid) const {
  uint64_t length = 0;
  std::vector<PageId> data_pages;
  PARADISE_RETURN_IF_ERROR(CollectPages(oid, &length, &data_pages, nullptr));
  const size_t page_size = pool_->page_size();
  std::string out;
  out.resize(length);
  for (size_t i = 0; i < data_pages.size(); ++i) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(data_pages[i]));
    const uint64_t begin = i * page_size;
    const uint64_t n = std::min<uint64_t>(page_size, length - begin);
    std::memcpy(out.data() + begin, g.data(), n);
  }
  return out;
}

Result<std::string> LargeObjectStore::ReadRange(ObjectId oid, uint64_t offset,
                                                uint64_t read_len) const {
  const size_t page_size = pool_->page_size();
  // Ids of the data pages the range covers, read from the directory pages
  // that list them and no others; the walk's pin ends with this block.
  std::vector<PageId> range_pages;
  {
    PARADISE_ASSIGN_OR_RETURN(DirectoryWalk walk,
                              DirectoryWalk::Start(pool_, oid));
    const uint64_t length = walk.length();
    if (offset > length || read_len > length - offset) {
      return Status::OutOfRange("read of " + std::to_string(read_len) +
                                " bytes at " + std::to_string(offset) +
                                " beyond object of " + std::to_string(length) +
                                " bytes");
    }
    if (read_len == 0) return std::string();
    const uint64_t first_page = offset / page_size;
    const uint64_t last_page = (offset + read_len - 1) / page_size;
    range_pages.reserve(last_page - first_page + 1);
    for (uint64_t p = first_page; p <= last_page; ++p) {
      while (p - walk.first() >= walk.count()) {
        if (walk.at_end()) {
          return Status::Corruption("large object " + std::to_string(oid) +
                                    " directory ends before data page " +
                                    std::to_string(p));
        }
        PARADISE_RETURN_IF_ERROR(walk.Next());
      }
      range_pages.push_back(walk.id(static_cast<uint32_t>(p - walk.first())));
    }
  }
  std::string out;
  out.resize(read_len);
  uint64_t written = 0;
  for (const PageId page : range_pages) {
    const uint64_t in_page = (offset + written) % page_size;
    const uint64_t n = std::min<uint64_t>(page_size - in_page,
                                          read_len - written);
    PARADISE_ASSIGN_OR_RETURN(PageGuard g, pool_->FetchPage(page));
    std::memcpy(out.data() + written, g.data() + in_page, n);
    written += n;
  }
  return out;
}

Result<uint64_t> LargeObjectStore::Size(ObjectId oid) const {
  PARADISE_ASSIGN_OR_RETURN(PageGuard header, pool_->FetchPage(oid));
  const char* h = header.data();
  if (std::memcmp(h + kHeaderMagic, kLobMagic, sizeof(kLobMagic)) != 0) {
    return Status::Corruption("not a large object: page " +
                              std::to_string(oid));
  }
  return DecodeFixed64(h + kHeaderLength);
}

Status LargeObjectStore::Overwrite(ObjectId oid, std::string_view data) {
  uint64_t length = 0;
  std::vector<PageId> old_data, old_dirs;
  PARADISE_RETURN_IF_ERROR(CollectPages(oid, &length, &old_data, &old_dirs));
  for (PageId p : old_data) PARADISE_RETURN_IF_ERROR(pool_->DeletePage(p));
  for (PageId p : old_dirs) PARADISE_RETURN_IF_ERROR(pool_->DeletePage(p));

  const size_t page_size = pool_->page_size();
  const uint64_t num_data_pages = (data.size() + page_size - 1) / page_size;
  std::vector<PageId> data_pages;
  data_pages.reserve(num_data_pages);
  for (uint64_t i = 0; i < num_data_pages; ++i) {
    PARADISE_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewPage());
    const uint64_t begin = i * page_size;
    const uint64_t n = std::min<uint64_t>(page_size, data.size() - begin);
    std::memcpy(guard.mutable_data(), data.data() + begin, n);
    data_pages.push_back(guard.page_id());
  }
  return WriteDirectory(oid, data.size(), data_pages);
}

Status LargeObjectStore::Free(ObjectId oid) {
  uint64_t length = 0;
  std::vector<PageId> data_pages, dir_pages;
  PARADISE_RETURN_IF_ERROR(CollectPages(oid, &length, &data_pages, &dir_pages));
  for (PageId p : data_pages) PARADISE_RETURN_IF_ERROR(pool_->DeletePage(p));
  for (PageId p : dir_pages) PARADISE_RETURN_IF_ERROR(pool_->DeletePage(p));
  return pool_->DeletePage(oid);
}

Result<uint64_t> LargeObjectStore::PageFootprint(ObjectId oid) const {
  uint64_t length = 0;
  std::vector<PageId> data_pages, dir_pages;
  PARADISE_RETURN_IF_ERROR(CollectPages(oid, &length, &data_pages, &dir_pages));
  return 1 + data_pages.size() + dir_pages.size();
}

}  // namespace paradise
