#include "server/wire.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"

namespace paradise::server {

namespace {

// --- bounds-checked little-endian payload reader/writer --------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  out->append(buf, 8);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Cursor over a payload; every Get* fails cleanly at the end instead of
/// over-reading, and Done() rejects trailing garbage.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (data_.size() - pos_ < 8) return false;
    *v = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (data_.size() - pos_ < len) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  /// The next `n` bytes, or nullptr when fewer remain.
  const char* Take(size_t n) {
    if (data_.size() - pos_ < n) return nullptr;
    const char* at = data_.data() + pos_;
    pos_ += n;
    return at;
  }

  bool Done() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- exactly-sized writers: each returns the byte past what it wrote ------

char* WriteU32(char* p, uint32_t v) {
  EncodeFixed32(p, v);
  return p + 4;
}

char* WriteU64(char* p, uint64_t v) {
  EncodeFixed64(p, v);
  return p + 8;
}

char* WriteString(char* p, std::string_view s) {
  p = WriteU32(p, static_cast<uint32_t>(s.size()));
  return std::copy(s.begin(), s.end(), p);
}

size_t StringBytes(std::string_view s) { return 4 + s.size(); }

char* WriteFrameHeader(char* p, FrameType type, size_t payload_bytes) {
  p = WriteU32(p, kWireMagic);
  p = WriteU32(p, static_cast<uint32_t>(payload_bytes));
  p[0] = static_cast<char>(type);
  p[1] = p[2] = p[3] = '\0';  // pad — must stay zero on the wire
  return p + 4;
}

/// Wire bytes of one result row: its codes, then sum, count, min, max.
constexpr size_t RowBytes(size_t width) { return 4 * width + 32; }

size_t GroupedResultBytes(const query::GroupedResult& result) {
  size_t bytes = 4 + 8 + result.num_groups() * RowBytes(result.width());
  for (const std::string& name : result.group_columns()) {
    bytes += StringBytes(name);
  }
  return bytes;
}

char* WriteGroupedResult(const query::GroupedResult& result, char* p) {
  const auto& columns = result.group_columns();
  p = WriteU32(p, static_cast<uint32_t>(columns.size()));
  for (const std::string& name : columns) p = WriteString(p, name);
  p = WriteU64(p, result.num_groups());
  const size_t width = result.width();
  const int32_t* code = result.codes().data();
  for (const query::AggState& agg : result.aggs()) {
    for (size_t c = 0; c < width; ++c) {
      p = WriteU32(p, static_cast<uint32_t>(*code++));
    }
    p = WriteU64(p, static_cast<uint64_t>(agg.sum));
    p = WriteU64(p, agg.count);
    p = WriteU64(p, static_cast<uint64_t>(agg.min));
    p = WriteU64(p, static_cast<uint64_t>(agg.max));
  }
  return p;
}

char* WriteResultReply(const ResultReply& reply, char* p) {
  p = WriteString(p, reply.engine);
  p = WriteString(p, reply.plan_reason);
  p = WriteString(p, reply.stats_json);
  *p++ = static_cast<char>(reply.agg);
  return WriteGroupedResult(reply.result, p);
}

Status Malformed(std::string_view what) {
  return Status::InvalidArgument("malformed " + std::string(what) +
                                 " payload");
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kCancel);
}

std::string_view WireErrorToString(WireError e) {
  switch (e) {
    case WireError::kBadRequest:
      return "BAD_REQUEST";
    case WireError::kQueryFailed:
      return "QUERY_FAILED";
    case WireError::kServerBusy:
      return "SERVER_BUSY";
    case WireError::kSnapshotGone:
      return "SNAPSHOT_GONE";
    case WireError::kShuttingDown:
      return "SHUTTING_DOWN";
    case WireError::kResultTooLarge:
      return "RESULT_TOO_LARGE";
    case WireError::kQueryTimeout:
      return "QUERY_TIMEOUT";
    case WireError::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out(kFrameHeaderBytes + payload.size(), '\0');
  std::copy(payload.begin(), payload.end(),
            WriteFrameHeader(out.data(), type, payload.size()));
  return out;
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  // Compact lazily so repeated small frames don't re-copy the buffer.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const char* base = buffer_.data() + consumed_;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>{};

  const uint32_t magic = DecodeFixed32(base);
  if (magic != kWireMagic) {
    return Status::Corruption("bad frame magic");
  }
  const uint32_t payload_len = DecodeFixed32(base + 4);
  if (payload_len > max_payload_) {
    return Status::Corruption("oversized frame: " +
                              std::to_string(payload_len) + " bytes");
  }
  const uint8_t type = static_cast<uint8_t>(base[8]);
  if (!IsKnownFrameType(type)) {
    return Status::Corruption("unknown frame type " + std::to_string(type));
  }
  if (base[9] != 0 || base[10] != 0 || base[11] != 0) {
    return Status::Corruption("nonzero frame pad bytes");
  }
  if (available < kFrameHeaderBytes + payload_len) {
    return std::optional<Frame>{};  // wait for the rest of the payload
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(base + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return std::optional<Frame>{std::move(frame)};
}

// --- typed payloads --------------------------------------------------------

Status ErrorReplyToStatus(const ErrorReply& e) {
  if (e.status_code != StatusCode::kOk) {
    return Status(e.status_code, e.message);
  }
  return Status::Internal(std::string(WireErrorToString(e.error)) +
                          (e.message.empty() ? "" : ": " + e.message));
}

std::string EncodeHello(const HelloReply& hello) {
  std::string out;
  PutU32(&out, hello.protocol_version);
  PutU64(&out, hello.pinned_epoch);
  PutString(&out, hello.cube_name);
  return out;
}

Result<HelloReply> DecodeHello(std::string_view payload) {
  Reader r(payload);
  HelloReply hello;
  if (!r.GetU32(&hello.protocol_version) || !r.GetU64(&hello.pinned_epoch) ||
      !r.GetString(&hello.cube_name) || !r.Done()) {
    return Malformed("hello");
  }
  return hello;
}

namespace {
constexpr uint8_t kQueryFlagTrace = 1u << 0;
constexpr uint8_t kQueryFlagNoCache = 1u << 1;
}  // namespace

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string out;
  PutU8(&out, request.engine);
  uint8_t flags = 0;
  if (request.trace) flags |= kQueryFlagTrace;
  if (request.no_cache) flags |= kQueryFlagNoCache;
  PutU8(&out, flags);
  PutU8(&out, 0);  // pad
  PutU8(&out, 0);  // pad
  PutU32(&out, request.num_threads);
  PutU32(&out, request.deadline_ms);
  PutString(&out, request.sql);
  return out;
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload) {
  Reader r(payload);
  QueryRequest request;
  uint8_t flags = 0, pad0 = 0, pad1 = 0;
  if (!r.GetU8(&request.engine) || !r.GetU8(&flags) || !r.GetU8(&pad0) ||
      !r.GetU8(&pad1) || !r.GetU32(&request.num_threads) ||
      !r.GetU32(&request.deadline_ms) || !r.GetString(&request.sql) ||
      !r.Done()) {
    return Malformed("query request");
  }
  if (pad0 != 0 || pad1 != 0 ||
      (flags & ~(kQueryFlagTrace | kQueryFlagNoCache)) != 0) {
    return Malformed("query request");
  }
  if (request.num_threads == 0) {
    return Status::InvalidArgument("query request: num_threads must be >= 1");
  }
  if (request.sql.empty()) {
    return Status::InvalidArgument("query request: empty SQL");
  }
  request.trace = (flags & kQueryFlagTrace) != 0;
  request.no_cache = (flags & kQueryFlagNoCache) != 0;
  return request;
}

std::string EncodeErrorReply(const ErrorReply& error) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(error.error));
  PutU8(&out, static_cast<uint8_t>(error.status_code));
  PutU8(&out, 0);  // pad
  PutU8(&out, 0);  // pad
  PutString(&out, error.message);
  return out;
}

Result<ErrorReply> DecodeErrorReply(std::string_view payload) {
  Reader r(payload);
  uint8_t error = 0, code = 0, pad0 = 0, pad1 = 0;
  ErrorReply reply;
  if (!r.GetU8(&error) || !r.GetU8(&code) || !r.GetU8(&pad0) ||
      !r.GetU8(&pad1) || !r.GetString(&reply.message) || !r.Done()) {
    return Malformed("error reply");
  }
  if (pad0 != 0 || pad1 != 0 || error < 1 ||
      error > static_cast<uint8_t>(WireError::kCancelled) ||
      code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    return Malformed("error reply");
  }
  reply.error = static_cast<WireError>(error);
  reply.status_code = static_cast<StatusCode>(code);
  return reply;
}

void AppendGroupedResult(const query::GroupedResult& result,
                         std::string* out) {
  const size_t at = out->size();
  out->resize(at + GroupedResultBytes(result));
  WriteGroupedResult(result, out->data() + at);
}

namespace {

Result<query::GroupedResult> ReadGroupedResult(Reader* r) {
  uint32_t num_columns = 0;
  if (!r->GetU32(&num_columns)) return Malformed("result");
  // Cheap sanity bound: a row costs at least 4*num_columns + 32 bytes, so a
  // huge declared column count on a short payload fails fast.
  if (num_columns > 1024) return Malformed("result");
  std::vector<std::string> columns(num_columns);
  for (std::string& name : columns) {
    if (!r->GetString(&name)) return Malformed("result");
  }
  uint64_t num_rows = 0;
  if (!r->GetU64(&num_rows)) return Malformed("result");
  // The payload bounds the row count before anything is sized from it.
  const uint64_t row_bytes = RowBytes(num_columns);
  if (num_rows > r->remaining() / row_bytes) return Malformed("result");
  const char* p = r->Take(num_rows * row_bytes);
  std::vector<int32_t> codes(num_rows * num_columns);
  std::vector<query::AggState> aggs(num_rows);
  int32_t* code = codes.data();
  for (query::AggState& agg : aggs) {
    for (uint32_t c = 0; c < num_columns; ++c, p += 4) {
      *code++ = static_cast<int32_t>(DecodeFixed32(p));
    }
    agg.sum = static_cast<int64_t>(DecodeFixed64(p));
    agg.count = DecodeFixed64(p + 8);
    agg.min = static_cast<int64_t>(DecodeFixed64(p + 16));
    agg.max = static_cast<int64_t>(DecodeFixed64(p + 24));
    p += 32;
  }
  return query::GroupedResult(std::move(columns), std::move(codes),
                              std::move(aggs));
}

}  // namespace

size_t ResultReplyBytes(const ResultReply& reply) {
  return StringBytes(reply.engine) + StringBytes(reply.plan_reason) +
         StringBytes(reply.stats_json) + 1 + GroupedResultBytes(reply.result);
}

std::string EncodeResultReply(const ResultReply& reply) {
  std::string out(ResultReplyBytes(reply), '\0');
  WriteResultReply(reply, out.data());
  return out;
}

std::string EncodeResultFrame(const ResultReply& reply) {
  const size_t payload_bytes = ResultReplyBytes(reply);
  std::string out(kFrameHeaderBytes + payload_bytes, '\0');
  WriteResultReply(reply,
                   WriteFrameHeader(out.data(), FrameType::kResult,
                                    payload_bytes));
  return out;
}

Result<ResultReply> DecodeResultReply(std::string_view payload) {
  Reader r(payload);
  ResultReply reply;
  if (!r.GetString(&reply.engine) || !r.GetString(&reply.plan_reason) ||
      !r.GetString(&reply.stats_json) || !r.GetU8(&reply.agg)) {
    return Malformed("result reply");
  }
  PARADISE_ASSIGN_OR_RETURN(reply.result, ReadGroupedResult(&r));
  if (!r.Done()) return Malformed("result reply");
  return reply;
}

}  // namespace paradise::server
