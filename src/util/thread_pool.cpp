#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace ffr::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down and drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t count, std::size_t chunk_size,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (chunk_size == 0) chunk_size = std::max<std::size_t>(1, count / (size() * 8));
  const std::size_t num_chunks = (count + chunk_size - 1) / chunk_size;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const std::size_t lanes = std::min(num_chunks, size());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    submit([&, lane] {
      for (;;) {
        const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= num_chunks) return;
        const std::size_t begin = chunk * chunk_size;
        const std::size_t end = std::min(count, begin + chunk_size);
        try {
          body(begin, end, lane);
        } catch (...) {
          const std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    });
  }
  wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ffr::util
