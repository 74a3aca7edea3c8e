#include "src/common/thread_pool.h"

namespace obladi {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  // Notify under the lock: the task may run, and its completion may let the
  // owner destroy this pool, before an unlocked notify would touch cv_.
  std::lock_guard<std::mutex> lk(mu_);
  queue_.push_back(std::move(fn));
  cv_.notify_one();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  CountdownLatch latch(n);
  for (size_t i = 0; i < n; ++i) {
    Enqueue([&, i] {
      fn(i);
      latch.CountDown();
    });
  }
  latch.Wait();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace obladi
