#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/metrics.h"
#include "query/result_cache.h"
#include "schema/database.h"
#include "server/net_util.h"

namespace paradise::server {

OlapServer::OlapServer(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  AdmissionOptions admission;
  if (options_.max_inflight > 0) {
    admission.max_inflight = options_.max_inflight;
    admission.max_queued = options_.max_queued;
  } else {
    admission = AdmissionController::SizedForStorage(
        db_->storage()->options());
  }
  admission.metrics_enabled = options_.metrics_enabled;
  admission_ = std::make_unique<AdmissionController>(admission);

  if (options_.enable_result_cache) {
    query::ConsolidationResultCache::Options cache_options;
    cache_options.byte_budget = options_.cache_byte_budget;
    cache_options.metrics_enabled = options_.metrics_enabled;
    cache_ = std::make_unique<query::ConsolidationResultCache>(cache_options);
  }

  session_options_.max_query_threads = options_.max_query_threads;
  session_options_.default_deadline_ms = options_.default_deadline_ms;
  session_options_.read_timeout_ms = options_.read_timeout_ms;
  session_options_.idle_timeout_ms = options_.idle_timeout_ms;
  session_options_.artificial_query_delay_ms =
      options_.artificial_query_delay_ms;
  session_options_.metrics_enabled = options_.metrics_enabled;
}

OlapServer::~OlapServer() { Stop(); }

Status OlapServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = ErrnoStatus("bind " + options_.host + ":" +
                                  std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    const Status st = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const Status st = ErrnoStatus("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(bound.sin_port);

  if (options_.metrics_enabled) {
    MetricsRegistry::Default().GetGauge("server.listening")->Set(1);
  }
  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void OlapServer::AcceptLoop() {
  Counter* m_connections =
      options_.metrics_enabled
          ? MetricsRegistry::Default().GetCounter("server.connections")
          : nullptr;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The listener was shut down (Stop) or is out of descriptors; in
      // either case the loop cannot make progress on this error.
      if (stopping_.load(std::memory_order_relaxed) || errno != EMFILE) {
        break;
      }
      continue;
    }
    counters_.connections.fetch_add(1, std::memory_order_relaxed);
    if (m_connections != nullptr) m_connections->Increment();

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>(fd);
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { RunSession(raw); });
    connections_.push_back(std::move(conn));
  }
}

void OlapServer::RunSession(Connection* conn) {
  {
    Session session(conn->fd, db_, cache_.get(), admission_.get(),
                    session_options_, &counters_);
    session.Run();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  conn->done.store(true, std::memory_order_release);
}

void OlapServer::ReapFinishedLocked() {
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void OlapServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);

  // Wake queries waiting for admission, then the accept loop.
  admission_->Shutdown();
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Wake every session wherever it blocks, then join: shutdown() makes the
  // socket readable, which unblocks the main loop's poll/recv (first byte
  // or mid-frame alike) and the per-query cancel watcher — whose failed
  // recv flips the query's token, so even a session deep in a chunk loop
  // unwinds within one chunk's work. Sockets are closed by the session
  // threads themselves (under mu_); anything left (a thread that never
  // reached its close) is closed here after the join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (const std::unique_ptr<Connection>& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  for (const std::unique_ptr<Connection>& conn : connections_) {
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();

  if (options_.metrics_enabled) {
    MetricsRegistry::Default().GetGauge("server.listening")->Set(0);
  }
  started_ = false;
}

OlapServer::Stats OlapServer::stats() const {
  Stats s;
  s.connections = counters_.connections.load(std::memory_order_relaxed);
  s.queries_ok = counters_.queries_ok.load(std::memory_order_relaxed);
  s.queries_failed = counters_.queries_failed.load(std::memory_order_relaxed);
  s.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  s.timeouts = counters_.timeouts.load(std::memory_order_relaxed);
  s.cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  s.read_timeouts = counters_.read_timeouts.load(std::memory_order_relaxed);
  // Busy replies and sheds are admission outcomes, counted there once.
  const AdmissionController::Snapshot admission = admission_->snapshot();
  s.busy_replies = admission.busy_rejections;
  s.shed_expired = admission.shed_expired;
  return s;
}

}  // namespace paradise::server
