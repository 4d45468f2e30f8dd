#include "storage/io_pool.h"

#include <utility>

namespace paradise {

IoPool::IoPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

IoPool::~IoPool() { Shutdown(); }

bool IoPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return true;
}

void IoPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void IoPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Idempotent: a second call must not re-join already-joined threads.
      return;
    }
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  drain_cv_.notify_all();
}

void IoPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    // Queued tasks still run after Shutdown(): their owners wait for them.
    if (queue_.empty()) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) drain_cv_.notify_all();
  }
}

}  // namespace paradise
