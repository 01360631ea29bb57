#pragma once
/// \file thread_pool.hpp
/// \brief A small fixed-size thread pool with a chunked parallel loop, used to
/// run fault-injection campaigns and cross-validation folds concurrently.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ffr::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// Runs items [0, count) across the pool and waits for completion. Items
  /// are claimed in chunks of `chunk_size` (0 = auto: ~8 chunks per worker)
  /// from a shared atomic counter, and body(begin, end, worker) is invoked
  /// once per claimed chunk.
  /// `worker` is a stable slot index in [0, size()), so callers can keep
  /// per-worker state (e.g. a reusable simulator) without locking.
  /// Exceptions thrown by `body` are rethrown (first one wins) on the caller.
  void parallel_for_chunked(
      std::size_t count, std::size_t chunk_size,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace ffr::util
