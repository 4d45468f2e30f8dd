// Session: one connected client, driven by a dedicated thread (the
// WeaselDB-style thread-per-connection model the ROADMAP names). The
// session speaks the framed protocol of server/wire.h over a borrowed
// socket, runs queries through the shared engine entry points, and owns the
// connection's snapshot semantics:
//
//   * Epoch pinning. At connect time the session records the database's
//     commit epoch and sends it in the Hello frame. While the database
//     stays at that epoch, queries run normally (result-cache reads and
//     inserts pinned to it via RunQueryOptions::cache_pin_epoch, so a
//     concurrent checkpoint can never poison a newer epoch's cache). Once
//     the epoch moves on, the session serves only answers still present in
//     the epoch-pinned result cache — results stay stable across cache
//     invalidation — and reports SNAPSHOT_GONE for anything else, telling
//     the client to reconnect for current data.
//   * Admission. Every query passes the shared AdmissionController first;
//     overflow becomes a typed SERVER_BUSY reply on a connection that stays
//     open, never a stalled or dropped request.
//   * Robustness. A malformed frame or payload yields one typed BAD_REQUEST
//     reply (best effort) followed by a clean close; engine errors cross
//     the wire with their StatusCode and message verbatim and leave the
//     connection usable.
//   * Deadlines and cancellation (DESIGN.md choice 13). Each query carries a
//     CancellationToken armed from the request's deadline_ms capped by the
//     server-wide default. While the query runs, a watcher thread keeps
//     reading the socket: a kCancel frame (or a vanished peer) flips the
//     token, which admission waits and the engines' chunk loops observe.
//     The query stops within one chunk's work and the client gets a typed
//     QUERY_TIMEOUT / CANCELLED reply on a connection that stays open.
//   * Socket timeouts (slow-loris protection). Reads are poll-bounded: a
//     partially received frame must make progress within read_timeout_ms
//     and an idle connection may be reaped after idle_timeout_ms; either
//     expiry closes the connection without tying up the session thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "query/engine.h"
#include "server/admission.h"
#include "server/wire.h"

namespace paradise {
class Counter;
class Histogram;
class Database;
namespace query {
class ConsolidationResultCache;
}  // namespace query
}  // namespace paradise

namespace paradise::server {

/// Shared whole-server tallies every session reports into (atomics; the
/// server snapshots them for OlapServer::stats()).
struct ServerCounters {
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> queries_failed{0};
  std::atomic<uint64_t> protocol_errors{0};
  /// Queries shed or aborted because their deadline passed (QUERY_TIMEOUT).
  std::atomic<uint64_t> timeouts{0};
  /// Queries abandoned on a client kCancel or disconnect (CANCELLED).
  std::atomic<uint64_t> cancelled{0};
  /// Connections reaped by the per-read / idle socket timeouts.
  std::atomic<uint64_t> read_timeouts{0};
};

struct SessionOptions {
  /// Upper bound on per-request array-engine worker threads.
  size_t max_query_threads = 8;

  /// Server-wide deadline cap in milliseconds; 0 = none. A request's
  /// deadline_ms is capped by this, and a request without one gets exactly
  /// this. The effective deadline is enforced in admission (shed while
  /// queued) and at the engines' chunk boundaries.
  uint32_t default_deadline_ms = 0;

  /// A partially received frame must make read progress at least this
  /// often or the connection is closed (slow-loris protection). 0 = wait
  /// forever.
  uint32_t read_timeout_ms = 30'000;

  /// Close connections idle (no frame in progress) this long. 0 = keep
  /// idle connections forever (the default — idling is legitimate).
  uint32_t idle_timeout_ms = 0;

  /// Test-only: sleep this long inside each admitted query (in token-aware
  /// 1 ms slices), so admission overflow, deadlines and cancels can be
  /// exercised deterministically.
  uint32_t artificial_query_delay_ms = 0;

  /// Mirror per-query events into MetricsRegistry::Default() ("server.*").
  bool metrics_enabled = false;
};

class Session {
 public:
  /// `fd` is borrowed — the server shuts it down to interrupt Run() and
  /// closes it after the session thread is joined.
  Session(int fd, Database* db, query::ConsolidationResultCache* cache,
          AdmissionController* admission, SessionOptions options,
          ServerCounters* counters);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session();

  /// Serves the connection until the peer disconnects, the stream turns
  /// malformed, a socket timeout fires, or the server shuts the socket
  /// down.
  void Run();

  uint64_t pinned_epoch() const { return pinned_epoch_; }

 private:
  /// False = close the connection after this frame.
  bool HandleFrame(const Frame& frame);
  bool HandleQuery(const QueryRequest& request);
  /// The admitted-query body; `token` carries the effective deadline and is
  /// flipped by the cancel watcher.
  bool ExecuteQuery(const QueryRequest& request, CancellationToken* token);

  /// Runs on the watcher thread for one query's lifetime: keeps reading the
  /// socket so kCancel / peer-disconnect can stop work already running.
  /// Non-cancel frames are queued for the main loop (pipelining keeps its
  /// pre-watcher semantics). Synchronization with the session thread is by
  /// thread start/join only — the session thread never touches decoder_ or
  /// pending_frames_ while the watcher runs.
  void WatchForCancel(CancellationToken* token,
                      const std::atomic<bool>* stop);
  /// Decodes buffered frames; kCancel flips the token, the rest go to
  /// pending_frames_. False = stop watching (corrupt stream).
  bool DrainFramesForCancel(CancellationToken* token);
  void WakeWatcher();
  void DrainWakePipe();

  /// Serves a query whose session epoch was superseded: only the pinned
  /// result-cache snapshot may answer; anything else is SNAPSHOT_GONE.
  bool ServeFromPinnedSnapshot(const query::ConsolidationQuery& q,
                               uint64_t current_epoch);

  bool SendFrame(FrameType type, std::string_view payload);
  bool SendError(WireError error, StatusCode code, std::string message);
  /// Maps a token's typed Status (kDeadlineExceeded / kCancelled) to its
  /// wire reply, bumping the matching counters.
  bool SendTokenStatus(const Status& st);
  bool SendResult(ResultReply reply);

  const int fd_;
  Database* const db_;
  query::ConsolidationResultCache* const cache_;  // null = caching off
  AdmissionController* const admission_;
  const SessionOptions options_;
  ServerCounters* const counters_;

  uint64_t pinned_epoch_ = 0;

  /// Stream state shared (by turns, never concurrently) between the main
  /// loop and the cancel watcher.
  FrameDecoder decoder_;
  std::vector<Frame> pending_frames_;

  /// Self-pipe waking the watcher's poll() instantly at query end, so the
  /// per-query watcher costs no trailing latency. {-1,-1} when pipe2
  /// failed; the watcher then falls back to a short poll timeout.
  int wake_pipe_[2] = {-1, -1};

  // Registry handles, null unless options_.metrics_enabled.
  Counter* m_queries_ = nullptr;
  Counter* m_errors_ = nullptr;
  Counter* m_timeouts_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Histogram* m_query_micros_ = nullptr;
};

}  // namespace paradise::server
