// Wire-protocol tests for the olapd server (server/wire.h): known-answer
// frame encodings, incremental decoder behavior, exhaustive malformed-input
// sweeps over the payload codecs, and a live-server sweep feeding truncated,
// oversized, zero-length and bit-flipped frames to a real listener — every
// case must produce a typed error reply or a clean disconnect, never a
// crash or a hang (CI runs this suite under ASan/UBSan and TSan).
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/client.h"
#include "server/net_util.h"
#include "server/server.h"
#include "server/wire.h"
#include "test_util.h"

namespace paradise::server {
namespace {

using paradise::testing::SmallDbOptions;
using paradise::testing::TempFile;
using paradise::testing::TinyConfig;

std::string Bytes(std::initializer_list<unsigned char> bytes) {
  std::string out;
  for (unsigned char b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

// --- known-answer encodings ------------------------------------------------

TEST(WireFrameTest, PingFrameGoldenBytes) {
  // magic "OLPQ" | payload_len 0 | type kPing | 3 zero pad bytes.
  EXPECT_EQ(EncodeFrame(FrameType::kPing, ""),
            Bytes({0x4F, 0x4C, 0x50, 0x51, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
                   0x00, 0x00}));
}

TEST(WireFrameTest, QueryFrameGoldenBytes) {
  QueryRequest request;
  request.engine = 2;  // kStarJoin + 1
  request.trace = true;
  request.num_threads = 3;
  request.deadline_ms = 500;
  request.sql = "q";
  // engine | flags(trace) | 2 pad | u32 num_threads | u32 deadline_ms |
  // u32 len | "q".
  const std::string payload = EncodeQueryRequest(request);
  EXPECT_EQ(payload, Bytes({0x02, 0x01, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
                            0xF4, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
                            'q'}));
  const std::string frame = EncodeFrame(FrameType::kQuery, payload);
  EXPECT_EQ(frame.substr(0, kFrameHeaderBytes),
            Bytes({0x4F, 0x4C, 0x50, 0x51, 0x11, 0x00, 0x00, 0x00, 0x02, 0x00,
                   0x00, 0x00}));
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);
}

TEST(WireFrameTest, CancelFrameGoldenBytes) {
  // kCancel carries no payload: magic | len 0 | type 7 | zero pad.
  EXPECT_EQ(EncodeFrame(FrameType::kCancel, ""),
            Bytes({0x4F, 0x4C, 0x50, 0x51, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00,
                   0x00, 0x00}));
  EXPECT_TRUE(IsKnownFrameType(7));
  EXPECT_FALSE(IsKnownFrameType(8));
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// The three results the Result-frame KATs pin: three columns and two rows
// with a negative min, no columns and one row (every dimension collapsed),
// and no rows at all.
ResultReply KatThreeColumnsTwoRows() {
  ResultReply reply;
  reply.engine = "array";
  reply.plan_reason = "p";
  reply.stats_json = "{}";
  reply.agg = 2;
  reply.result = query::GroupedResult({"d0.h1", "d1.h2", "d3.h1"});
  query::AggState first;
  first.Add(17);
  first.Add(-4);
  reply.result.Add(query::ResultRow{std::vector<int32_t>{0, -3, 7}, first});
  query::AggState second;
  second.Add(5);
  reply.result.Add(query::ResultRow{std::vector<int32_t>{1, 2, 0}, second});
  return reply;
}

ResultReply KatNoColumnsOneRow() {
  ResultReply reply;
  reply.engine = "cache";
  reply.agg = 0;
  reply.result = query::GroupedResult(std::vector<std::string>{});
  query::AggState total;
  total.Add(9);
  total.Add(-2);
  reply.result.Add(query::ResultRow{std::vector<int32_t>{}, total});
  return reply;
}

ResultReply KatNoRows() {
  ResultReply reply;
  reply.engine = "bitmap";
  reply.stats_json = "{\"seconds\":0}";
  reply.agg = 1;
  reply.result = query::GroupedResult({"d2.h1"});
  return reply;
}

// Both ways of building a Result frame must give these bytes: EncodeFrame
// around EncodeResultReply, and olapd's single-buffer EncodeResultFrame.
void ExpectResultFrameHex(const ResultReply& reply, const std::string& hex) {
  const std::string payload = EncodeResultReply(reply);
  EXPECT_EQ(ResultReplyBytes(reply), payload.size());
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kResult, payload)), hex);
  EXPECT_EQ(Hex(EncodeResultFrame(reply)), hex);
  Result<ResultReply> decoded = DecodeResultReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->result.group_columns(), reply.result.group_columns());
  EXPECT_TRUE(decoded->result.SameAs(reply.result));
  EXPECT_EQ(EncodeResultReply(*decoded), payload);
}

TEST(WireFrameTest, ResultFrameGoldenBytes) {
  // header (len 0x94, type 3) | "array" | "p" | "{}" | agg 2 | 3 names |
  // 2 rows: codes 0,-3,7 then sum 13, count 2, min -4, max 17; codes 1,2,0
  // then sum 5, count 1, min 5, max 5.
  ExpectResultFrameHex(
      KatThreeColumnsTwoRows(),
      "4f4c505194000000030000000500000061727261790100000070020000007b7d"
      "02030000000500000064302e68310500000064312e68320500000064332e6831"
      "020000000000000000000000fdffffff070000000d0000000000000002000000"
      "00000000fcffffffffffffff1100000000000000010000000200000000000000"
      "0500000000000000010000000000000005000000000000000500000000000000");
}

TEST(WireFrameTest, ZeroColumnResultFrameGoldenBytes) {
  // No names, one row of no codes: sum 7, count 2, min -2, max 9.
  ExpectResultFrameHex(
      KatNoColumnsOneRow(),
      "4f4c50513e000000030000000500000063616368650000000000000000000000"
      "0000010000000000000007000000000000000200000000000000feffffffffff"
      "ffff0900000000000000");
}

TEST(WireFrameTest, EmptyResultFrameGoldenBytes) {
  // One name, zero rows.
  ExpectResultFrameHex(
      KatNoRows(),
      "4f4c50513500000003000000060000006269746d6170000000000d0000007b22"
      "7365636f6e6473223a307d01010000000500000064322e683100000000000000"
      "00");
}

TEST(WireFrameTest, PayloadRoundTrips) {
  HelloReply hello;
  hello.protocol_version = 7;
  hello.pinned_epoch = 0x1122334455667788ull;
  hello.cube_name = "sales";
  auto hello2 = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(hello2.ok()) << hello2.status().ToString();
  EXPECT_EQ(hello2->protocol_version, 7u);
  EXPECT_EQ(hello2->pinned_epoch, 0x1122334455667788ull);
  EXPECT_EQ(hello2->cube_name, "sales");

  QueryRequest request;
  request.engine = 3;
  request.trace = true;
  request.no_cache = true;
  request.num_threads = 5;
  request.deadline_ms = 0x01020304;
  request.sql = "select sum(v) from f";
  auto request2 = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(request2.ok()) << request2.status().ToString();
  EXPECT_EQ(request2->engine, 3);
  EXPECT_TRUE(request2->trace);
  EXPECT_TRUE(request2->no_cache);
  EXPECT_EQ(request2->num_threads, 5u);
  EXPECT_EQ(request2->deadline_ms, 0x01020304u);
  EXPECT_EQ(request2->sql, request.sql);

  // The deadline-bearing error classes round-trip with their status codes.
  for (const auto& [wire, code] :
       {std::pair{WireError::kQueryTimeout, StatusCode::kDeadlineExceeded},
        std::pair{WireError::kCancelled, StatusCode::kCancelled}}) {
    ErrorReply typed;
    typed.error = wire;
    typed.status_code = code;
    typed.message = "late";
    auto typed2 = DecodeErrorReply(EncodeErrorReply(typed));
    ASSERT_TRUE(typed2.ok()) << typed2.status().ToString();
    EXPECT_EQ(typed2->error, wire);
    EXPECT_EQ(typed2->status_code, code);
    const Status st = ErrorReplyToStatus(*typed2);
    EXPECT_TRUE(wire == WireError::kQueryTimeout ? st.IsDeadlineExceeded()
                                                 : st.IsCancelled());
  }

  ErrorReply error;
  error.error = WireError::kQueryFailed;
  error.status_code = StatusCode::kNotFound;
  error.message = "no such table: nonsense";
  auto error2 = DecodeErrorReply(EncodeErrorReply(error));
  ASSERT_TRUE(error2.ok()) << error2.status().ToString();
  EXPECT_EQ(error2->error, WireError::kQueryFailed);
  EXPECT_EQ(error2->status_code, StatusCode::kNotFound);
  EXPECT_EQ(error2->message, error.message);
  const Status st = ErrorReplyToStatus(*error2);
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), error.message);

  ResultReply reply;
  reply.engine = "array";
  reply.plan_reason = "no selection";
  reply.stats_json = "{\"seconds\":0.5}";
  reply.agg = 2;
  reply.result = query::GroupedResult({"dim0.h01", "dim1.h11"});
  const std::vector<int32_t> codes = {0, -3};
  query::ResultRow row{codes, {}};
  row.agg.Add(17);
  row.agg.Add(-4);
  reply.result.Add(row);
  auto reply2 = DecodeResultReply(EncodeResultReply(reply));
  ASSERT_TRUE(reply2.ok()) << reply2.status().ToString();
  EXPECT_EQ(reply2->engine, "array");
  EXPECT_EQ(reply2->plan_reason, "no selection");
  EXPECT_EQ(reply2->stats_json, reply.stats_json);
  EXPECT_EQ(reply2->agg, 2);
  ASSERT_TRUE(reply2->result.SameAs(reply.result));
}

// --- incremental decoder ---------------------------------------------------

TEST(WireFrameTest, DecoderReassemblesByteAtATime) {
  const std::string frame =
      EncodeFrame(FrameType::kQuery, EncodeQueryRequest([] {
        QueryRequest q;
        q.sql = "select sum(v) from f";
        return q;
      }()));
  FrameDecoder decoder;
  for (size_t i = 0; i < frame.size(); ++i) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->has_value()) << "frame complete after " << i
                                    << " of " << frame.size() << " bytes";
    decoder.Append(frame.data() + i, 1);
  }
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->type, FrameType::kQuery);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireFrameTest, DecoderYieldsBackToBackFrames) {
  std::string stream = EncodeFrame(FrameType::kPing, "");
  stream += EncodeFrame(FrameType::kPong, "");
  stream += EncodeFrame(FrameType::kError,
                        EncodeErrorReply({WireError::kServerBusy,
                                          StatusCode::kOk, "busy"}));
  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  const FrameType expected[3] = {FrameType::kPing, FrameType::kPong,
                                 FrameType::kError};
  for (FrameType type : expected) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
    EXPECT_EQ((*next)->type, type);
  }
  auto done = decoder.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
}

TEST(WireFrameTest, DecoderRejectsMalformedHeaders) {
  // Bad magic.
  {
    FrameDecoder decoder;
    const std::string garbage = "GET / HTTP/1.1\r\n";
    decoder.Append(garbage.data(), garbage.size());
    EXPECT_TRUE(decoder.Next().status().IsCorruption());
  }
  // Unknown frame type.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(FrameType::kPing, "");
    frame[8] = 99;
    decoder.Append(frame.data(), frame.size());
    EXPECT_TRUE(decoder.Next().status().IsCorruption());
  }
  // Nonzero pad byte.
  {
    FrameDecoder decoder;
    std::string frame = EncodeFrame(FrameType::kPing, "");
    frame[10] = 1;
    decoder.Append(frame.data(), frame.size());
    EXPECT_TRUE(decoder.Next().status().IsCorruption());
  }
  // Declared payload above the limit fails before any buffering.
  {
    FrameDecoder decoder(/*max_payload=*/16);
    std::string frame = EncodeFrame(FrameType::kQuery, std::string(17, 'x'));
    decoder.Append(frame.data(), kFrameHeaderBytes);
    EXPECT_TRUE(decoder.Next().status().IsCorruption());
  }
}

TEST(WireFrameTest, EveryHeaderBitFlipIsRejectedOrIncomplete) {
  const std::string good = EncodeFrame(FrameType::kPing, "");
  for (size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string frame = good;
      frame[byte] = static_cast<char>(frame[byte] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.Append(frame.data(), frame.size());
      auto next = decoder.Next();
      if (!next.ok()) continue;  // rejected: good
      // The only survivable flips change payload_len or the type into
      // another known type; a changed length must leave the decoder waiting
      // (incomplete), never yield a fake Ping.
      if (next->has_value()) {
        EXPECT_NE((*next)->type, FrameType::kPing)
            << "bit flip at byte " << byte << " bit " << bit
            << " produced an unchanged frame";
      }
    }
  }
}

// --- malformed payload sweep ----------------------------------------------

/// Every strict prefix of a valid payload must decode to an error (catches
/// over-reads under ASan), and one trailing byte must be rejected too.
template <typename DecodeFn>
void SweepTruncations(const std::string& payload, DecodeFn&& decode) {
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(decode(std::string_view(payload.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
  const std::string trailing = payload + '\0';
  EXPECT_FALSE(decode(trailing).ok()) << "trailing garbage decoded";
}

TEST(WirePayloadTest, TruncationSweep) {
  HelloReply hello;
  hello.cube_name = "cube";
  SweepTruncations(EncodeHello(hello), DecodeHello);

  QueryRequest request;
  request.sql = "select sum(v) from f";
  request.deadline_ms = 250;  // the deadline bytes sweep like any others
  SweepTruncations(EncodeQueryRequest(request), DecodeQueryRequest);

  ErrorReply error;
  error.error = WireError::kSnapshotGone;
  error.message = "gone";
  SweepTruncations(EncodeErrorReply(error), DecodeErrorReply);

  ResultReply reply;
  reply.engine = "array";
  reply.stats_json = "{}";
  reply.result = query::GroupedResult({"c"});
  const std::vector<int32_t> codes = {1};
  query::ResultRow row{codes, {}};
  row.agg.Add(5);
  reply.result.Add(row);
  SweepTruncations(EncodeResultReply(reply), DecodeResultReply);
  SweepTruncations(EncodeResultReply(KatNoColumnsOneRow()), DecodeResultReply);
}

TEST(WirePayloadTest, QueryRequestValidation) {
  QueryRequest request;
  request.sql = "select sum(v) from f";
  std::string good = EncodeQueryRequest(request);

  // Zero worker threads.
  {
    QueryRequest bad = request;
    bad.num_threads = 0;
    EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(bad)).ok());
  }
  // Empty SQL.
  {
    QueryRequest bad = request;
    bad.sql.clear();
    EXPECT_FALSE(DecodeQueryRequest(EncodeQueryRequest(bad)).ok());
  }
  // Unknown flag bits.
  {
    std::string bytes = good;
    bytes[1] = static_cast<char>(0x80);
    EXPECT_FALSE(DecodeQueryRequest(bytes).ok());
  }
  // Nonzero pad bytes.
  for (size_t pad : {size_t{2}, size_t{3}}) {
    std::string bytes = good;
    bytes[pad] = 1;
    EXPECT_FALSE(DecodeQueryRequest(bytes).ok());
  }
}

TEST(WirePayloadTest, ErrorReplyValidation) {
  ErrorReply error;
  error.error = WireError::kBadRequest;
  const std::string good = EncodeErrorReply(error);
  // Error class 0 and out-of-range classes/status codes are rejected
  // (classes 7 and 8 became QUERY_TIMEOUT / CANCELLED; 9 is the first
  // unassigned value).
  for (unsigned char byte0 : {0, 9, 200}) {
    std::string bytes = good;
    bytes[0] = static_cast<char>(byte0);
    EXPECT_FALSE(DecodeErrorReply(bytes).ok());
  }
  {
    std::string bytes = good;
    bytes[1] = static_cast<char>(250);  // StatusCode out of range
    EXPECT_FALSE(DecodeErrorReply(bytes).ok());
  }
}

TEST(WirePayloadTest, ResultReplyRejectsLyingCounts) {
  ResultReply reply;
  reply.engine = "array";
  reply.result = query::GroupedResult({"c"});
  std::string good = EncodeResultReply(reply);

  // A huge declared column count on a short payload fails fast instead of
  // allocating.
  {
    std::string bytes;
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));  // engine ""
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));  // plan_reason ""
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));  // stats ""
    bytes.push_back('\0');                          // agg
    bytes.append(Bytes({0xFF, 0xFF, 0xFF, 0xFF}));  // num_columns
    EXPECT_FALSE(DecodeResultReply(bytes).ok());
  }
  // A huge declared row count against a short remainder fails fast too.
  {
    std::string bytes;
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));
    bytes.push_back('\0');
    bytes.append(Bytes({0x00, 0x00, 0x00, 0x00}));  // 0 columns
    bytes.append(
        Bytes({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}));  // rows
    EXPECT_FALSE(DecodeResultReply(bytes).ok());
  }
  // A zero-column result whose row count disagrees with its one 32-byte
  // row: one row more, or none (the row is then trailing garbage).
  {
    const std::string one_row = EncodeResultReply(KatNoColumnsOneRow());
    const size_t rows_at = one_row.size() - 32 - 8;
    for (unsigned char rows : {0x02, 0x00}) {
      std::string bytes = one_row;
      bytes[rows_at] = static_cast<char>(rows);
      EXPECT_FALSE(DecodeResultReply(bytes).ok()) << int{rows} << " rows";
    }
  }
}

// --- live-server malformed sweep ------------------------------------------

/// A raw TCP connection to the server with a receive timeout, for speaking
/// deliberately malformed bytes. Consumes the Hello frame on connect.
class RawConn {
 public:
  static std::unique_ptr<RawConn> Open(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return nullptr;
    }
    timeval tv{};
    tv.tv_sec = 10;  // a hung server fails the test, it doesn't stall ctest
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    auto conn = std::unique_ptr<RawConn>(new RawConn(fd));
    auto hello = conn->ReadFrame();
    if (!hello.has_value() || hello->type != FrameType::kHello) return nullptr;
    return conn;
  }

  ~RawConn() { ::close(fd_); }

  bool Send(std::string_view bytes) { return SendAll(fd_, bytes).ok(); }
  void ShutWrite() { ::shutdown(fd_, SHUT_WR); }

  /// The next frame, or nullopt on disconnect/timeout/corrupt stream.
  std::optional<Frame> ReadFrame() {
    char buf[4096];
    for (;;) {
      auto next = decoder_.Next();
      if (!next.ok()) return std::nullopt;
      if (next->has_value()) return std::move(**next);
      const ssize_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n <= 0) return std::nullopt;
      decoder_.Append(buf, static_cast<size_t>(n));
    }
  }

  /// Drains until the server closes the connection. False if the 10 s
  /// receive timeout fires first — i.e. the server hung instead of closing.
  bool DrainUntilClosed() {
    char buf[4096];
    for (;;) {
      const ssize_t n = RecvSome(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  explicit RawConn(int fd) : fd_(fd) {}
  int fd_;
  FrameDecoder decoder_;
};

class ServerMalformedInputTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<TempFile>("server_proto");
    ASSERT_OK_AND_ASSIGN(auto data, gen::Generate(TinyConfig(150, 11)));
    ASSERT_OK_AND_ASSIGN(
        db_, BuildDatabaseFromDataset(file_->path(), data, SmallDbOptions()));
    ServerOptions options;
    server_ = std::make_unique<OlapServer>(db_.get(), options);
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_ == nullptr) return;  // SetUp failed before starting it
    server_->Stop();
    EXPECT_EQ(server_->stats().queries_failed, 0u);
  }

  /// The server is still alive and serving well-formed traffic.
  void AssertServerHealthy() {
    ASSERT_OK_AND_ASSIGN(auto client,
                         OlapClient::Connect("127.0.0.1", server_->port()));
    ASSERT_OK(client->Ping());
    ASSERT_OK_AND_ASSIGN(
        auto reply,
        client->Query("select sum(volume), dim0.h01 from cube "
                      "group by dim0.h01"));
    ASSERT_TRUE(reply.ok) << reply.error.message;
    EXPECT_GT(reply.result.result.num_groups(), 0u);
  }

  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<OlapServer> server_;
};

TEST_F(ServerMalformedInputTest, GarbageBytesGetTypedErrorThenDisconnect) {
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(conn->Send("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value()) << "no error reply before disconnect";
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeErrorReply(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->error, WireError::kBadRequest);
  EXPECT_TRUE(conn->DrainUntilClosed());
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, TruncatedFrameDisconnectsCleanly) {
  const std::string frame = EncodeFrame(
      FrameType::kQuery, EncodeQueryRequest([] {
        QueryRequest q;
        q.sql = "select sum(volume) from cube";
        return q;
      }()));
  // Every strict prefix: the server must wait, then treat our half-close as
  // a clean disconnect — no reply owed, and no crash.
  for (size_t len : {size_t{1}, size_t{7}, kFrameHeaderBytes,
                     frame.size() - 1}) {
    auto conn = RawConn::Open(server_->port());
    ASSERT_NE(conn, nullptr);
    ASSERT_TRUE(conn->Send(std::string_view(frame.data(), len)));
    conn->ShutWrite();
    EXPECT_TRUE(conn->DrainUntilClosed()) << "prefix of " << len << " bytes";
  }
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, ZeroLengthQueryIsRejected) {
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  // A kQuery frame with an empty payload is structurally complete but an
  // invalid request.
  ASSERT_TRUE(conn->Send(EncodeFrame(FrameType::kQuery, "")));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeErrorReply(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->error, WireError::kBadRequest);
  EXPECT_TRUE(conn->DrainUntilClosed());
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, OversizedFrameIsRejected) {
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  // A header declaring a payload over the limit; the body never follows.
  std::string header = EncodeFrame(FrameType::kQuery, "");
  header[4] = static_cast<char>(0xFF);
  header[5] = static_cast<char>(0xFF);
  header[6] = static_cast<char>(0xFF);
  header[7] = static_cast<char>(0x7F);
  ASSERT_TRUE(conn->Send(header));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_TRUE(conn->DrainUntilClosed());
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, ClientOnlyFrameTypesAreRejected) {
  for (FrameType type : {FrameType::kHello, FrameType::kResult,
                         FrameType::kError, FrameType::kPong}) {
    auto conn = RawConn::Open(server_->port());
    ASSERT_NE(conn, nullptr);
    const std::string payload =
        type == FrameType::kError
            ? EncodeErrorReply({WireError::kBadRequest, StatusCode::kOk, ""})
            : std::string();
    ASSERT_TRUE(conn->Send(EncodeFrame(type, payload)));
    auto reply = conn->ReadFrame();
    if (reply.has_value()) {
      EXPECT_EQ(reply->type, FrameType::kError);
    }
    EXPECT_TRUE(conn->DrainUntilClosed());
  }
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, HeaderBitFlipSweep) {
  // Flip each bit of a Ping header in turn. Whatever the flip produces —
  // bad magic, lying length, foreign type, dirty pad — the server must
  // answer with a typed error or just close; our half-close guarantees it
  // never waits forever for a payload we won't send.
  const std::string good = EncodeFrame(FrameType::kPing, "");
  for (size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string frame = good;
      frame[byte] = static_cast<char>(frame[byte] ^ (1 << bit));
      auto conn = RawConn::Open(server_->port());
      ASSERT_NE(conn, nullptr) << "byte " << byte << " bit " << bit;
      ASSERT_TRUE(conn->Send(frame));
      conn->ShutWrite();
      EXPECT_TRUE(conn->DrainUntilClosed())
          << "server hung on flip at byte " << byte << " bit " << bit;
    }
  }
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, UnknownEngineIdIsBadRequest) {
  ASSERT_OK_AND_ASSIGN(auto client,
                       OlapClient::Connect("127.0.0.1", server_->port()));
  QueryRequest request;
  request.engine = 200;
  request.sql = "select sum(volume) from cube";
  ASSERT_OK_AND_ASSIGN(auto reply, client->Query(request));
  ASSERT_FALSE(reply.ok);
  EXPECT_EQ(reply.error.error, WireError::kBadRequest);
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, IdleCancelIsSilentlyIgnored) {
  // A kCancel with no query in flight gets no reply of its own — the
  // one-reply-per-request contract holds — and the connection stays usable.
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(conn->Send(EncodeFrame(FrameType::kCancel, "")));
  ASSERT_TRUE(conn->Send(EncodeFrame(FrameType::kPing, "")));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kPong);
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, CancelWithPayloadIsBadRequest) {
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  ASSERT_TRUE(conn->Send(EncodeFrame(FrameType::kCancel, "x")));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeErrorReply(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->error, WireError::kBadRequest);
  EXPECT_TRUE(conn->DrainUntilClosed());
  AssertServerHealthy();
}

TEST_F(ServerMalformedInputTest, TruncatedCancelAfterQueryStillGetsReply) {
  // The watcher reads the socket while a query runs; a cancel frame cut off
  // mid-header must not wedge it — the pending query still gets exactly one
  // reply.
  auto conn = RawConn::Open(server_->port());
  ASSERT_NE(conn, nullptr);
  QueryRequest request;
  request.sql = "select sum(volume), dim0.h01 from cube group by dim0.h01";
  ASSERT_TRUE(
      conn->Send(EncodeFrame(FrameType::kQuery, EncodeQueryRequest(request))));
  const std::string cancel = EncodeFrame(FrameType::kCancel, "");
  ASSERT_TRUE(conn->Send(std::string_view(cancel.data(), 5)));
  auto reply = conn->ReadFrame();
  ASSERT_TRUE(reply.has_value()) << "query reply lost to a truncated cancel";
  EXPECT_TRUE(reply->type == FrameType::kResult ||
              reply->type == FrameType::kError);
  AssertServerHealthy();
}

}  // namespace
}  // namespace paradise::server
