#include "core/thread_pool.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace tpuperf::core {

struct ThreadPool::Queue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;
  bool stopping = false;
  bool joined = false;  // guarded by shutdown_mu
  std::mutex shutdown_mu;
};

ThreadPool::ThreadPool(int num_threads)
    : queue_(std::make_unique<Queue>()),
      num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  std::scoped_lock shutdown_lock(queue_->shutdown_mu);
  if (queue_->joined) return;
  stopped_.store(true, std::memory_order_release);
  {
    std::scoped_lock lock(queue_->mu);
    queue_->stopping = true;
  }
  queue_->cv.notify_all();
  for (std::thread& w : workers_) w.join();  // workers drain the queue first
  queue_->joined = true;
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::scoped_lock lock(queue_->mu);
    // Checked under the lock that Shutdown sets `stopping` under: a task is
    // either visible to the draining workers or rejected here, so no
    // enqueued task can be stranded.
    if (queue_->stopping) {
      throw ThreadPoolStopped("ThreadPool: task submitted after Shutdown");
    }
    queue_->tasks.push_back(std::move(task));
  }
  queue_->cv.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(queue_->mu);
      queue_->cv.wait(lock,
                      [this] { return queue_->stopping || !queue_->tasks.empty(); });
      if (queue_->tasks.empty()) return;  // stopping and drained
      task = std::move(queue_->tasks.front());
      queue_->tasks.pop_front();
    }
    task();
  }
}

namespace {

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global;  // guarded by g_global_mu

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::scoped_lock lock(g_global_mu);
  if (g_global == nullptr) g_global = std::make_unique<ThreadPool>(1);
  return *g_global;
}

void ThreadPool::SetNumThreads(int num_threads) {
  // The old pool joins its workers when `previous` leaves scope, outside
  // the lock.
  auto next = std::make_unique<ThreadPool>(num_threads);
  std::unique_ptr<ThreadPool> previous;
  {
    std::scoped_lock lock(g_global_mu);
    previous = std::move(g_global);
    g_global = std::move(next);
  }
}

}  // namespace tpuperf::core
