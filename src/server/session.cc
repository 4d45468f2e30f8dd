#include "server/session.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "query/planner.h"
#include "query/result_cache.h"
#include "query/sql.h"
#include "schema/database.h"
#include "server/net_util.h"

namespace paradise::server {

namespace {

/// A slot from the admission controller, released on scope exit.
class AdmissionSlot {
 public:
  AdmissionSlot(AdmissionController* admission, const CancellationToken* token)
      : admission_(admission), outcome_(admission->Acquire(token)) {}
  ~AdmissionSlot() {
    if (outcome_ == AdmissionController::Outcome::kAdmitted) {
      admission_->Release();
    }
  }
  AdmissionController::Outcome outcome() const { return outcome_; }

 private:
  AdmissionController* const admission_;
  const AdmissionController::Outcome outcome_;
};

}  // namespace

Session::Session(int fd, Database* db,
                 query::ConsolidationResultCache* cache,
                 AdmissionController* admission, SessionOptions options,
                 ServerCounters* counters)
    : fd_(fd),
      db_(db),
      cache_(cache),
      admission_(admission),
      options_(options),
      counters_(counters) {
  if (options_.metrics_enabled) {
    MetricsRegistry& registry = MetricsRegistry::Default();
    m_queries_ = registry.GetCounter("server.queries");
    m_errors_ = registry.GetCounter("server.query_errors");
    m_timeouts_ = registry.GetCounter("server.timeouts");
    m_cancelled_ = registry.GetCounter("server.cancelled");
    m_query_micros_ = registry.GetHistogram("server.query_micros");
  }
  // Best effort; on failure the watcher degrades to a short poll timeout.
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

Session::~Session() {
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Session::Run() {
  SetTcpNoDelay(fd_);
  pinned_epoch_ = db_->commit_epoch();
  HelloReply hello;
  hello.protocol_version = kProtocolVersion;
  hello.pinned_epoch = pinned_epoch_;
  hello.cube_name = db_->schema().cube_name;
  if (!SendFrame(FrameType::kHello, EncodeHello(hello))) return;

  char buf[64 * 1024];
  for (;;) {
    // Frames the cancel watcher captured during the last query come first;
    // handling one may itself run a query and append more.
    while (!pending_frames_.empty()) {
      Frame frame = std::move(pending_frames_.front());
      pending_frames_.erase(pending_frames_.begin());
      if (!HandleFrame(frame)) return;
    }
    for (;;) {
      Result<std::optional<Frame>> next = decoder_.Next();
      if (!next.ok()) {
        // Malformed stream (bad magic / flipped header / oversized length):
        // one typed reply, best effort, then a clean close.
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendError(WireError::kBadRequest, StatusCode::kOk,
                  next.status().message());
        return;
      }
      if (!next->has_value()) break;
      if (!HandleFrame(**next)) return;
      if (!pending_frames_.empty()) break;  // back to the pending queue
    }
    if (!pending_frames_.empty()) continue;
    // Bounded wait for bytes: a frame mid-receive must keep making progress
    // (slow-loris protection); an idle connection gets the idle budget.
    const bool mid_frame = decoder_.buffered_bytes() > 0;
    const uint32_t budget_ms =
        mid_frame ? options_.read_timeout_ms : options_.idle_timeout_ms;
    const int timeout_ms =
        budget_ms == 0
            ? -1
            : static_cast<int>(std::min<uint32_t>(budget_ms, 1u << 30));
    const PollWait wait = WaitReadable(fd_, timeout_ms);
    if (wait == PollWait::kError) return;
    if (wait == PollWait::kTimedOut) {
      counters_->read_timeouts.fetch_add(1, std::memory_order_relaxed);
      // No reply: a peer too slow to finish a frame (or gone idle past the
      // budget) gets a close, not a frame it may never read.
      return;
    }
    const ssize_t n = RecvSome(fd_, buf, sizeof(buf));
    if (n <= 0) return;  // disconnect (0) or socket error/shutdown (<0)
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

bool Session::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      return SendFrame(FrameType::kPong, "");
    case FrameType::kQuery: {
      Result<QueryRequest> request = DecodeQueryRequest(frame.payload);
      if (!request.ok()) {
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendError(WireError::kBadRequest, request.status().code(),
                  request.status().message());
        return false;
      }
      return HandleQuery(*request);
    }
    case FrameType::kCancel:
      if (!frame.payload.empty()) {
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendError(WireError::kBadRequest, StatusCode::kOk,
                  "cancel frame must have an empty payload");
        return false;
      }
      // No query in flight: the cancel lost the race with the reply (or was
      // unsolicited). Ignoring it keeps one-reply-per-request intact.
      return true;
    case FrameType::kHello:
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kPong:
      // Server-to-client frame types are never valid requests.
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendError(WireError::kBadRequest, StatusCode::kOk,
                "unexpected frame type from client");
      return false;
  }
  return false;
}

bool Session::HandleQuery(const QueryRequest& request) {
  // Effective deadline: the client's, capped by the server-wide default; a
  // client without one inherits the default outright.
  CancellationToken token;
  uint32_t deadline_ms = request.deadline_ms;
  if (options_.default_deadline_ms > 0) {
    deadline_ms = deadline_ms == 0
                      ? options_.default_deadline_ms
                      : std::min(deadline_ms, options_.default_deadline_ms);
  }
  if (deadline_ms > 0) token.SetDeadlineAfterMs(deadline_ms);

  // The watcher owns the socket's read side until the reply decision is
  // made; it is joined before the main loop touches the decoder again.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher(
      [this, &token, &watcher_stop] { WatchForCancel(&token, &watcher_stop); });
  const bool keep_open = ExecuteQuery(request, &token);
  watcher_stop.store(true, std::memory_order_release);
  WakeWatcher();
  watcher.join();
  return keep_open;
}

bool Session::ExecuteQuery(const QueryRequest& request,
                           CancellationToken* token) {
  AdmissionSlot slot(admission_, token);
  switch (slot.outcome()) {
    case AdmissionController::Outcome::kBusy:
      counters_->busy_replies.fetch_add(1, std::memory_order_relaxed);
      // The connection stays open: busy is a retryable condition.
      return SendError(WireError::kServerBusy, StatusCode::kOk,
                       "admission queue full; retry");
    case AdmissionController::Outcome::kShutdown:
      SendError(WireError::kShuttingDown, StatusCode::kOk,
                "server shutting down");
      return false;
    case AdmissionController::Outcome::kExpired:
      return SendTokenStatus(
          Status::DeadlineExceeded("deadline expired while queued"),
          /*shed_by_admission=*/true);
    case AdmissionController::Outcome::kCancelled:
      return SendTokenStatus(Status::Cancelled("query cancelled while queued"));
    case AdmissionController::Outcome::kAdmitted:
      break;
  }
  if (m_queries_ != nullptr) m_queries_->Increment();
  Stopwatch watch;
  if (options_.artificial_query_delay_ms > 0) {
    // Token-aware slices, so deadlines and cancels interrupt the artificial
    // delay the way they would a real chunk loop.
    for (uint32_t slept = 0;
         slept < options_.artificial_query_delay_ms && !token->ShouldStop();
         ++slept) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  {
    const Status st = token->Check();
    if (!st.ok()) return SendTokenStatus(st);
  }

  Result<query::ConsolidationQuery> compiled =
      query::CompileSql(request.sql, db_->schema());
  if (!compiled.ok()) {
    return SendError(WireError::kQueryFailed, compiled.status().code(),
                     compiled.status().message());
  }
  const query::ConsolidationQuery& q = *compiled;

  EngineKind kind = EngineKind::kArray;
  std::string plan_reason;
  if (request.engine != 0) {
    const uint8_t raw = static_cast<uint8_t>(request.engine - 1);
    if (raw > static_cast<uint8_t>(EngineKind::kBTreeSelect)) {
      return SendError(WireError::kBadRequest, StatusCode::kInvalidArgument,
                       "unknown engine id " + std::to_string(request.engine));
    }
    kind = static_cast<EngineKind>(raw);
  } else {
    Result<PlanChoice> plan = ChoosePlan(*db_, q);
    if (!plan.ok()) {
      return SendError(WireError::kQueryFailed, plan.status().code(),
                       plan.status().message());
    }
    kind = plan->engine;
    plan_reason = std::move(plan->reason);
  }

  RunQueryOptions run_options;
  // The cold-buffer drop is a single-client benchmarking protocol; a server
  // evicting shared pages under concurrent readers would be pathological,
  // so every server-side query runs warm.
  run_options.cold = false;
  run_options.num_threads = std::clamp<size_t>(
      request.num_threads, 1, std::max<size_t>(1, options_.max_query_threads));
  run_options.trace = request.trace;
  run_options.cancel = token;

  const uint64_t current_epoch = db_->commit_epoch();
  if (current_epoch != pinned_epoch_) {
    return ServeFromPinnedSnapshot(q, current_epoch);
  }
  if (cache_ != nullptr && !request.no_cache) {
    run_options.cache = cache_;
    // Pin cache reads/inserts to the connect-time epoch: if a checkpoint
    // lands mid-query, the result is filed under the epoch it was computed
    // against instead of poisoning the new one.
    run_options.cache_pin_epoch = pinned_epoch_;
  }

  Result<Execution> exec = RunQuery(db_, kind, q, run_options);
  if (!exec.ok()) {
    if (exec.status().IsDeadlineExceeded() || exec.status().IsCancelled()) {
      return SendTokenStatus(exec.status());
    }
    return SendError(WireError::kQueryFailed, exec.status().code(),
                     exec.status().message());
  }
  // Re-validate the epoch before serving the bytes: a commit landing between
  // the check above and the engine's atomic PinArray() may have let the
  // engine pin the newer version set. Epochs only increase, so an unchanged
  // epoch here proves the pin happened at pinned_epoch_; a moved epoch means
  // the result may carry new-epoch bytes and must not be served as
  // pinned-snapshot output — degrade to the cache-only pinned path instead.
  const uint64_t post_epoch = db_->commit_epoch();
  if (post_epoch != pinned_epoch_) {
    return ServeFromPinnedSnapshot(q, post_epoch);
  }
  if (m_query_micros_ != nullptr) {
    m_query_micros_->Record(
        static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  }

  ResultReply reply;
  reply.engine = std::string(EngineKindToString(kind));
  reply.plan_reason = std::move(plan_reason);
  reply.stats_json = exec->stats.ToJson();
  reply.agg = static_cast<uint8_t>(q.agg);
  reply.result = std::move(exec->result);
  return SendResult(std::move(reply));
}

void Session::WatchForCancel(CancellationToken* token,
                             const std::atomic<bool>* stop) {
  DrainWakePipe();  // stale wake bytes from an earlier query's shutdown
  // A kCancel pipelined right behind the query may already sit decoded in
  // the buffer — honor it before blocking on the socket.
  if (!DrainFramesForCancel(token)) return;
  char buf[4096];
  while (!stop->load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    fds[0].fd = fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    nfds_t nfds = 1;
    if (wake_pipe_[0] >= 0) {
      fds[1].fd = wake_pipe_[0];
      fds[1].events = POLLIN;
      fds[1].revents = 0;
      nfds = 2;
    }
    const int rc = ::poll(fds, nfds, wake_pipe_[0] >= 0 ? -1 : 20);
    if (stop->load(std::memory_order_acquire)) return;
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (rc == 0) continue;
    if (nfds == 2 && fds[1].revents != 0) {
      DrainWakePipe();
      continue;  // loop re-checks the stop flag
    }
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = RecvSome(fd_, buf, sizeof(buf));
    if (n <= 0) {
      // Peer vanished (or Server::Stop() shut the socket down): nobody is
      // waiting for this result — stop the work.
      token->RequestCancel();
      admission_->Poke();
      return;
    }
    decoder_.Append(buf, static_cast<size_t>(n));
    if (!DrainFramesForCancel(token)) return;
  }
}

bool Session::DrainFramesForCancel(CancellationToken* token) {
  for (;;) {
    Result<std::optional<Frame>> next = decoder_.Next();
    if (!next.ok()) {
      // Corrupt stream mid-query. The main loop will re-surface the same
      // decoder error and close; no point finishing work for a connection
      // that is already doomed.
      token->RequestCancel();
      admission_->Poke();
      return false;
    }
    if (!next->has_value()) return true;
    Frame frame = std::move(**next);
    if (frame.type == FrameType::kCancel && frame.payload.empty()) {
      token->RequestCancel();
      admission_->Poke();
    } else {
      // Pipelined requests (another query, a ping, a bad cancel) keep their
      // order and are handled by the main loop after the current reply.
      pending_frames_.push_back(std::move(frame));
    }
  }
}

void Session::WakeWatcher() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 0;
  // Non-blocking; a full pipe already guarantees a pending wake-up.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Session::DrainWakePipe() {
  if (wake_pipe_[0] < 0) return;
  char drain[64];
  while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
  }
}

bool Session::ServeFromPinnedSnapshot(const query::ConsolidationQuery& q,
                                      uint64_t current_epoch) {
  const std::string gone =
      "snapshot epoch " + std::to_string(pinned_epoch_) +
      " superseded by " + std::to_string(current_epoch) +
      "; reconnect for current data";
  if (cache_ == nullptr) {
    return SendError(WireError::kSnapshotGone, StatusCode::kOk, gone);
  }
  Stopwatch watch;
  const query::CanonicalQuery canon = query::CanonicalQuery::From(q);
  // Peek, not Lookup: a pinned reader must never invalidate the entry
  // current-epoch sessions are serving from.
  std::shared_ptr<const query::GroupedResult> hit =
      cache_->Peek(db_->CacheScope(), pinned_epoch_, canon);
  if (hit == nullptr) {
    return SendError(WireError::kSnapshotGone, StatusCode::kOk,
                     gone + " (not in the pinned result cache)");
  }
  ExecutionStats stats;
  stats.seconds = watch.ElapsedSeconds();
  stats.cache_outcome = CacheOutcome::kHit;
  stats.cache_source_rows = hit->num_groups();
  if (m_query_micros_ != nullptr) {
    m_query_micros_->Record(static_cast<uint64_t>(stats.seconds * 1e6));
  }
  ResultReply reply;
  reply.engine = "cache";
  reply.plan_reason = "pinned-epoch snapshot served from result cache";
  reply.stats_json = stats.ToJson();
  reply.agg = static_cast<uint8_t>(q.agg);
  reply.result = *hit;
  return SendResult(std::move(reply));
}

bool Session::SendFrame(FrameType type, std::string_view payload) {
  return SendAll(fd_, EncodeFrame(type, payload)).ok();
}

bool Session::SendError(WireError error, StatusCode code,
                        std::string message) {
  // Only query-level failures count as failed queries; protocol errors and
  // busy/shutdown replies have their own counters.
  if (error == WireError::kQueryFailed || error == WireError::kSnapshotGone ||
      error == WireError::kResultTooLarge) {
    counters_->queries_failed.fetch_add(1, std::memory_order_relaxed);
    if (m_errors_ != nullptr) m_errors_->Increment();
  }
  ErrorReply reply;
  reply.error = error;
  reply.status_code = code;
  reply.message = std::move(message);
  return SendFrame(FrameType::kError, EncodeErrorReply(reply));
}

bool Session::SendTokenStatus(const Status& st, bool shed_by_admission) {
  if (st.IsCancelled()) {
    counters_->cancelled.fetch_add(1, std::memory_order_relaxed);
    if (m_cancelled_ != nullptr) m_cancelled_->Increment();
    return SendError(WireError::kCancelled, StatusCode::kCancelled,
                     st.message());
  }
  counters_->timeouts.fetch_add(1, std::memory_order_relaxed);
  if (m_timeouts_ != nullptr) m_timeouts_->Increment();
  if (shed_by_admission) {
    counters_->shed_expired.fetch_add(1, std::memory_order_relaxed);
  }
  return SendError(WireError::kQueryTimeout, StatusCode::kDeadlineExceeded,
                   st.message());
}

bool Session::SendResult(ResultReply reply) {
  // Every producer already emits canonical order (FlatToGroupedResult,
  // RollUp, EmitGroups; the cache stores their results), so the same query
  // yields byte-identical frames regardless of engine, thread count or
  // cache outcome.
  const size_t payload_bytes = ResultReplyBytes(reply);
  if (payload_bytes > kMaxFramePayload) {
    return SendError(WireError::kResultTooLarge, StatusCode::kOk,
                     "result payload of " + std::to_string(payload_bytes) +
                         " bytes exceeds the frame limit");
  }
  counters_->queries_ok.fetch_add(1, std::memory_order_relaxed);
  return SendAll(fd_, EncodeResultFrame(reply)).ok();
}

}  // namespace paradise::server
