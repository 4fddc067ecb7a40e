// A fixed worker pool that runs submitted tasks. serve::PredictionService
// owns one for its flushed batches; every other computation in the library
// runs on its caller's thread.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tpuperf::core {

// Thrown by Submit on a pool that was Shutdown(): scheduling on a stopped
// pool is a caller bug, and a typed error beats the alternative (a future
// that never resolves, or work running on a half-torn-down pool).
class ThreadPoolStopped : public std::logic_error {
 public:
  explicit ThreadPoolStopped(const char* what) : std::logic_error(what) {}
};

class ThreadPool {
 public:
  // `num_threads` <= 1 creates no workers: all work runs on the caller.
  explicit ThreadPool(int num_threads);
  // Equivalent to Shutdown().
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains every task already queued, joins the workers, and marks the pool
  // stopped: Submit throws ThreadPoolStopped from then on. Idempotent and
  // safe to call concurrently; called by the destructor.
  void Shutdown();
  bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  // The width the pool was built with (workers + 1); always >= 1.
  int size() const noexcept { return num_threads_; }

  // Schedules a task on the pool (runs inline when the pool has no workers)
  // and returns its future. Throws ThreadPoolStopped after Shutdown(): the
  // check is under the queue lock on the worker path, so a task is either
  // enqueued before the workers drain or rejected — never stranded.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      if (stopped()) {
        throw ThreadPoolStopped("ThreadPool::Submit after Shutdown");
      }
      (*task)();
    } else {
      Enqueue([task]() { (*task)(); });
    }
    return future;
  }

  // ---- Global pool ----------------------------------------------------------
  // A process-wide pool, created on first use with width 1 (no workers).
  // Nothing in the library uses it; the tpubench harness still sets and
  // reports its width, and both members go once the harness stops calling
  // them.
  static ThreadPool& Global();
  // Replaces the global pool. Must not be called while work is in flight.
  static void SetNumThreads(int num_threads);

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  struct Queue;  // hides <mutex>/<condition_variable> plumbing in the .cpp
  std::unique_ptr<Queue> queue_;
  std::vector<std::thread> workers_;
  int num_threads_ = 1;
  std::atomic<bool> stopped_{false};
};

}  // namespace tpuperf::core
