// IoPool: a small fixed-size background thread pool. It serves the chunk
// reader of a read-ahead scan (array/chunk_prefetcher.h) and the per-chunk
// merges of a compaction (ingest/compactor.cc). Tasks are opaque closures;
// the pool guarantees only ordering-free execution, a Drain() barrier, and
// that every accepted task runs exactly once — also across Shutdown(), so an
// owner waiting for its task's completion never waits forever.
//
// The StorageManager owns one pool per database (created when
// StorageOptions::io_pool_threads > 0) and quiesces it with Drain() before
// any operation that assumes no I/O is in flight (FlushAndEvictAll,
// Checkpoint, Close), so cache-dropping and commit protocols never race a
// background read. A task therefore must not park waiting for another
// thread: the chunk reader exits when its window is full and its consumer
// resubmits it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace paradise {

class IoPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit IoPool(size_t num_threads);

  /// Runs Shutdown().
  ~IoPool();

  IoPool(const IoPool&) = delete;
  IoPool& operator=(const IoPool&) = delete;

  /// Enqueues `task` for execution on some worker. Returns false (dropping
  /// the task) after Shutdown(); the caller then does the work itself (a
  /// scan reads its chunks synchronously), so this is safe at any time.
  bool Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished and no worker is
  /// mid-task. New Submit() calls during a Drain() may or may not be waited
  /// on; callers quiesce producers first.
  void Drain();

  /// Irreversibly stops the pool: new tasks are refused, every task already
  /// accepted (queued or running) runs to completion, workers join.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks / shutdown
  std::condition_variable drain_cv_;  // Drain() waits for quiescence
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;  // tasks currently executing
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace paradise
