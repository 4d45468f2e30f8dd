// The olapd wire protocol: length-prefixed frames carrying SQL requests and
// serialized GroupedResult replies, so the query stack can be driven by
// remote clients (ROADMAP item 1 — the serving layer that makes "heavy
// traffic" measurable). Modeled on the classic framed key/value protocols:
// a fixed 12-byte header (magic, payload length, frame type) followed by a
// type-specific payload of little-endian fixed-width fields and
// length-prefixed strings.
//
// Frame layout (all integers little-endian):
//
//   offset 0  u32  magic          kWireMagic ("OLPQ")
//   offset 4  u32  payload_len    <= max payload (kMaxFramePayload default)
//   offset 8  u8   type           FrameType
//   offset 9  u8[3] pad           must be zero
//   offset 12 ...  payload
//
// The pad bytes double as cheap corruption tripwires: a bit-flipped header
// fails decoding instead of desynchronizing the stream. Payload decoding is
// fully bounds-checked and rejects trailing garbage, so a malformed frame
// yields a typed error (never a crash, hang, or over-read) — the contract
// tests/server_protocol_test.cc sweeps.
//
// Conversation:
//   server → client   kHello                    (once, on accept)
//   client → server   kQuery | kPing
//   server → client   kResult | kError | kPong  (one reply per request)
//   client → server   kCancel                   (anytime; no reply of its own)
//
// kCancel asks the server to abandon the in-flight query: the pending
// kQuery still gets exactly one reply — either kResult (the query won the
// race) or kError CANCELLED. A kCancel with no query in flight is ignored,
// so a cancel that loses the race is harmless.
//
// Engine errors cross the wire typed: ErrorReply carries the WireError
// class, the engine's StatusCode, and the engine's message verbatim, so a
// client can reconstruct the exact Status a local RunSql would have
// returned (asserted by tests/sql_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "query/result.h"

namespace paradise::server {

/// "OLPQ" when the header is viewed as bytes.
inline constexpr uint32_t kWireMagic = 0x51504C4Fu;
inline constexpr uint32_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Default ceiling on one frame's payload; both sides reject bigger frames
/// before buffering them.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : uint8_t {
  kHello = 1,   // server → client: protocol version, pinned epoch, cube name
  kQuery = 2,   // client → server: SQL + execution options
  kResult = 3,  // server → client: stats JSON + serialized GroupedResult
  kError = 4,   // server → client: typed error
  kPing = 5,    // client → server: empty payload
  kPong = 6,    // server → client: empty payload
  kCancel = 7,  // client → server: empty payload; abandon the in-flight query
};

/// True for frame-type byte values defined above.
bool IsKnownFrameType(uint8_t type);

/// Error classes a server reply can carry. kQueryFailed wraps the engine's
/// own Status (code + message preserved verbatim); the others are
/// server-side conditions with no engine Status behind them.
enum class WireError : uint8_t {
  /// Malformed frame or request payload; the connection closes after this.
  kBadRequest = 1,
  /// Compile/plan/execution failed; status_code/message carry the cause.
  kQueryFailed = 2,
  /// Admission-control overflow: in-flight limit and wait queue both full.
  /// The connection stays open — retry after a backoff.
  kServerBusy = 3,
  /// The session's pinned commit epoch was superseded and the result is not
  /// in the epoch-pinned cache; reconnect to read current data.
  kSnapshotGone = 4,
  /// Server is stopping; the connection closes after this.
  kShuttingDown = 5,
  /// The result exceeds the maximum frame payload.
  kResultTooLarge = 6,
  /// The query's deadline (client deadline_ms, capped by the server-wide
  /// default) expired — while queued or mid-execution. The connection stays
  /// open; status_code is kDeadlineExceeded.
  kQueryTimeout = 7,
  /// The client sent kCancel (or disconnected) and the query was abandoned
  /// at a chunk boundary. status_code is kCancelled.
  kCancelled = 8,
};

std::string_view WireErrorToString(WireError e);

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// One wire-ready frame (header + payload). `payload` must fit the default
/// payload ceiling; oversized input is a programming error upstream (the
/// session guards results with kResultTooLarge before encoding).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Incremental frame parser over a byte stream. Feed whatever recv()
/// returned; Next() yields complete frames in order. A malformed header
/// (bad magic, unknown type, nonzero pad, oversized length) returns a
/// Corruption status, after which the stream is unrecoverable and the
/// connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  /// A complete frame, std::nullopt when more bytes are needed, or
  /// Corruption on a malformed stream.
  Result<std::optional<Frame>> Next();

  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const size_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already returned as frames
};

// --- typed payloads --------------------------------------------------------

/// First frame of every connection, server → client.
struct HelloReply {
  uint32_t protocol_version = kProtocolVersion;
  /// Commit epoch this session is pinned to (see DESIGN.md choice 12).
  uint64_t pinned_epoch = 0;
  std::string cube_name;
};

struct QueryRequest {
  /// 0 = let the planner choose; otherwise EngineKind value + 1.
  uint8_t engine = 0;
  /// Include the span tree ("trace") in the reply's stats JSON.
  bool trace = false;
  /// Bypass the server's result cache for this query.
  bool no_cache = false;
  /// Array-engine worker threads (clamped by the server). Must be >= 1.
  uint32_t num_threads = 1;
  /// Query deadline in milliseconds from receipt; 0 = none. The server caps
  /// it with its own default_deadline_ms and sheds the query with
  /// QUERY_TIMEOUT once the effective deadline passes.
  uint32_t deadline_ms = 0;
  std::string sql;
};

struct ErrorReply {
  WireError error = WireError::kBadRequest;
  /// StatusCode of the underlying engine error (kOk when there is none,
  /// e.g. SERVER_BUSY).
  StatusCode status_code = StatusCode::kOk;
  /// The engine's message verbatim — error strings survive the wire.
  std::string message;
};

/// Reconstructs the Status a local call would have returned (Internal with
/// the wire-error name when no engine status crossed).
Status ErrorReplyToStatus(const ErrorReply& e);

struct ResultReply {
  /// Engine that produced the result ("array", "bitmap", ...; "cache" when
  /// served from an epoch-pinned snapshot without running an engine).
  std::string engine;
  /// Planner rule trace (empty when the client forced the engine).
  std::string plan_reason;
  /// ExecutionStats::ToJson() of the run.
  std::string stats_json;
  /// AggFunc of the query, so clients can Finalize/print rows.
  uint8_t agg = 0;
  /// Canonically sorted result — byte-stable across engines and runs.
  query::GroupedResult result;
};

std::string EncodeHello(const HelloReply& hello);
Result<HelloReply> DecodeHello(std::string_view payload);

std::string EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload);

std::string EncodeErrorReply(const ErrorReply& error);
Result<ErrorReply> DecodeErrorReply(std::string_view payload);

std::string EncodeResultReply(const ResultReply& reply);
Result<ResultReply> DecodeResultReply(std::string_view payload);

/// The size of EncodeResultReply(reply), computed without encoding.
size_t ResultReplyBytes(const ResultReply& reply);

/// EncodeFrame(kResult, EncodeResultReply(reply)), byte for byte, written
/// header first into one buffer of exactly the frame's size.
std::string EncodeResultFrame(const ResultReply& reply);

/// GroupedResult serialization shared by the reply codec, the golden
/// comparisons in tests, and the bench's divergence check. Layout:
///   u32 num_group_columns, then that many strings
///   u64 num_rows, then per row: num_group_columns × i32 group codes,
///   then AggState as i64 sum, u64 count, i64 min, i64 max.
/// Written in one pass into exactly that many bytes appended to `out`.
void AppendGroupedResult(const query::GroupedResult& result, std::string* out);

}  // namespace paradise::server
