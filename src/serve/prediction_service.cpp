#include "serve/prediction_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "plan/plan.h"
#include "serve/snapshot.h"
#include "sim/target.h"

namespace tpuperf::serve {

using Clock = std::chrono::steady_clock;

// One queued prediction. The promise is fulfilled by whichever worker runs
// the batch this request was flushed into — or by the batcher (expiry), or
// by an overloaded PredictAsync (shedding).
struct PendingRequest {
  const ir::Graph* kernel = nullptr;
  ir::Graph::Hashes hashes;  // the kernel's fingerprint and signature
  std::optional<ir::TileConfig> tile;
  std::optional<Clock::time_point> deadline;
  std::promise<PredictResult> promise;
};

struct ServiceImpl {
  ServiceImpl(int num_threads, plan::PlanCache::Counters plan_base)
      : pool(num_threads), plan_base(plan_base) {}

  core::ThreadPool pool;
  // The model's plan-cache counters when the service started.
  const plan::PlanCache::Counters plan_base;

  std::mutex mu;               // guards queue + stopping
  std::condition_variable cv;  // batcher wakeup (new request / shutdown)
  std::condition_variable space_cv;  // producer wakeup (policy `block`)
  std::deque<PendingRequest> queue;
  bool stopping = false;

  std::mutex inflight_mu;  // guards inflight_batches
  std::condition_variable inflight_cv;
  std::size_t inflight_batches = 0;

  std::mutex shutdown_mu;  // serializes Shutdown callers
  bool joined = false;     // guarded by shutdown_mu
  std::thread batcher;

  // Circuit breaker (guarded by breaker_mu). `consecutive_failures` counts
  // model-level batch failures; per-request featurize failures do not trip
  // the breaker (they are request bugs, not model outages).
  std::mutex breaker_mu;
  PredictionService::BreakerState breaker_state =
      PredictionService::BreakerState::kClosed;
  int consecutive_failures = 0;
  Clock::time_point breaker_open_until{};

  // Stats (monotonic; see ServiceStats).
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> size_flushes{0};
  std::atomic<std::uint64_t> deadline_flushes{0};
  std::atomic<std::uint64_t> shutdown_flushes{0};
  std::atomic<std::uint64_t> batched_items{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> breaker_transitions{0};
};

namespace {

using BreakerState = PredictionService::BreakerState;

// How ProcessBatch answers this batch, decided once per batch against the
// breaker. kProbe is the half-open trial: exactly one batch retries the
// model while everything else keeps degrading.
enum class Route { kModel, kDegraded, kProbe };

Route ChooseRoute(ServiceImpl& impl, const ServiceConfig& config) {
  if (config.breaker_failures <= 0) return Route::kModel;
  std::lock_guard lock(impl.breaker_mu);
  switch (impl.breaker_state) {
    case BreakerState::kClosed:
      return Route::kModel;
    case BreakerState::kOpen:
      if (Clock::now() < impl.breaker_open_until) return Route::kDegraded;
      impl.breaker_state = BreakerState::kHalfOpen;
      impl.breaker_transitions.fetch_add(1, std::memory_order_relaxed);
      return Route::kProbe;
    case BreakerState::kHalfOpen:
      return Route::kDegraded;
  }
  return Route::kModel;
}

void SetBreaker(ServiceImpl& impl, BreakerState next) {
  if (impl.breaker_state == next) return;
  impl.breaker_state = next;
  impl.breaker_transitions.fetch_add(1, std::memory_order_relaxed);
}

void OnModelSuccess(ServiceImpl& impl, Route route) {
  std::lock_guard lock(impl.breaker_mu);
  impl.consecutive_failures = 0;
  if (route == Route::kProbe) SetBreaker(impl, BreakerState::kClosed);
}

void OnModelFailure(ServiceImpl& impl, const ServiceConfig& config,
                    Route route) {
  if (config.breaker_failures <= 0) return;
  std::lock_guard lock(impl.breaker_mu);
  if (route == Route::kProbe) {
    // Probe failed: back to a full cooldown of degradation.
    impl.breaker_open_until =
        Clock::now() + std::chrono::microseconds(config.breaker_cooldown_us);
    SetBreaker(impl, BreakerState::kOpen);
    return;
  }
  if (++impl.consecutive_failures >= config.breaker_failures &&
      impl.breaker_state == BreakerState::kClosed) {
    impl.consecutive_failures = 0;
    impl.breaker_open_until =
        Clock::now() + std::chrono::microseconds(config.breaker_cooldown_us);
    SetBreaker(impl, BreakerState::kOpen);
  }
}

// A probe batch that never reached the model (every request failed
// featurization) proved nothing: reopen so the next batch can probe again.
void AbandonProbe(ServiceImpl& impl, const ServiceConfig& config) {
  std::lock_guard lock(impl.breaker_mu);
  if (impl.breaker_state != BreakerState::kHalfOpen) return;
  impl.breaker_open_until =
      Clock::now() + std::chrono::microseconds(config.breaker_cooldown_us);
  SetBreaker(impl, BreakerState::kOpen);
}

// The degraded answer for one request: the deterministic analytical
// estimate under the request's tile, or — when the request carried none —
// under the trivial full-shape tile (one iteration over the root output).
double AnalyticalEstimate(const analytical::AnalyticalModel& fallback,
                          const ir::Graph& kernel,
                          const std::optional<ir::TileConfig>& tile) {
  if (tile.has_value()) return fallback.EstimateRuntime(kernel, *tile);
  ir::TileConfig full;
  const ir::NodeId root = kernel.RootId();
  if (root != ir::kInvalidNode) {
    const ir::Shape& shape = kernel.node(root).shape;
    full.dims.reserve(static_cast<std::size_t>(shape.rank()));
    for (int i = 0; i < shape.rank(); ++i) full.dims.push_back(shape.dim(i));
  }
  return fallback.EstimateRuntime(kernel, full);
}

void DegradeBatch(const analytical::AnalyticalModel& fallback,
                  std::vector<PendingRequest*>& live, ServiceImpl& impl) {
  for (PendingRequest* p : live) {
    try {
      const double estimate = AnalyticalEstimate(fallback, *p->kernel, p->tile);
      p->promise.set_value(PredictResult{estimate, /*degraded=*/true});
      impl.degraded.fetch_add(1, std::memory_order_relaxed);
      impl.completed.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      impl.failed.fetch_add(1, std::memory_order_relaxed);
      p->promise.set_exception(std::current_exception());
    }
  }
}

// Scores one flushed batch and fulfills its promises. A per-request prepare
// failure fails only that request; a model-level failure fails the batch
// (and feeds the circuit breaker, which routes later batches to the
// analytical fallback while open).
void ProcessBatch(const core::LearnedCostModel& model,
                  core::PreparedCache& cache,
                  const analytical::AnalyticalModel& fallback,
                  const ServiceConfig& config,
                  std::vector<PendingRequest> batch, ServiceImpl& impl) {
  struct InflightGuard {
    ServiceImpl& impl;
    ~InflightGuard() {
      std::lock_guard lock(impl.inflight_mu);
      --impl.inflight_batches;
      impl.inflight_cv.notify_all();
    }
  } guard{impl};

  // Models a stalled worker (lock contention, page fault storm): requests
  // keep queueing behind it and deadlines keep running.
  if (core::FaultPointFires("batch.slow")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const Route route = ChooseRoute(impl, config);
  if (route == Route::kDegraded) {
    std::vector<PendingRequest*> live;
    live.reserve(batch.size());
    for (PendingRequest& p : batch) live.push_back(&p);
    DegradeBatch(fallback, live, impl);
    return;
  }

  std::vector<core::BatchItem> items;
  std::vector<PendingRequest*> live;
  items.reserve(batch.size());
  live.reserve(batch.size());
  for (PendingRequest& p : batch) {
    try {
      const core::PreparedKernel& prepared =
          cache.Get(*p.kernel, p.hashes.fingerprint, p.hashes.signature);
      items.push_back(core::BatchItem{
          &prepared, p.tile.has_value() ? &*p.tile : nullptr});
      live.push_back(&p);
    } catch (...) {
      impl.failed.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_exception(std::current_exception());
    }
  }
  if (live.empty()) {
    if (route == Route::kProbe) AbandonProbe(impl, config);
    return;
  }

  try {
    // Models a model-side outage (the error class the breaker exists for).
    core::MaybeInjectFault("model.predict_throw");
    const core::PreparedBatch packed = model.PrepareBatch(items);
    const std::vector<double> scores = model.PredictBatch(packed);
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i]->promise.set_value(PredictResult{scores[i], /*degraded=*/false});
    }
    impl.completed.fetch_add(live.size(), std::memory_order_relaxed);
    OnModelSuccess(impl, route);
  } catch (...) {
    OnModelFailure(impl, config, route);
    if (config.breaker_failures > 0) {
      // The model just proved unhealthy; answer THIS batch analytically too
      // instead of failing futures the breaker would have saved a moment
      // later.
      DegradeBatch(fallback, live, impl);
    } else {
      impl.failed.fetch_add(live.size(), std::memory_order_relaxed);
      for (PendingRequest* p : live) {
        p->promise.set_exception(std::current_exception());
      }
    }
  }
}

}  // namespace

PredictionService::PredictionService(
    std::unique_ptr<core::LearnedCostModel> model, ServiceConfig config)
    : config_(config), model_(std::move(model)) {
  if (model_ == nullptr) {
    throw std::invalid_argument("PredictionService: null model");
  }
  if (!model_->fitted()) {
    throw std::invalid_argument(
        "PredictionService: model scalers are not fitted (train or load a "
        "snapshot first)");
  }
  if (config_.max_batch < 1) config_.max_batch = 1;
  if (config_.deadline_us < 0) config_.deadline_us = 0;
  if (config_.queue_cap < 0) config_.queue_cap = 0;
  if (config_.request_timeout_us < 0) config_.request_timeout_us = 0;
  if (config_.breaker_failures < 0) config_.breaker_failures = 0;
  if (config_.breaker_cooldown_us < 0) config_.breaker_cooldown_us = 0;
  cache_ = std::make_unique<core::PreparedCache>(*model_);
  fallback_ =
      std::make_unique<analytical::AnalyticalModel>(sim::TpuTarget::V2());
  const int threads = config_.num_threads > 0
                          ? config_.num_threads
                          : core::ThreadPool::DefaultNumThreads();
  impl_ = std::make_unique<ServiceImpl>(threads,
                                        model_->plan_cache().counters());
  impl_->batcher = std::thread([this] { BatcherLoop(); });
}

PredictionService::PredictionService(const std::string& snapshot_path,
                                     ServiceConfig config)
    : PredictionService(LoadModelSnapshotWithRetry(snapshot_path), config) {}

PredictionService::~PredictionService() { Shutdown(); }

std::future<PredictResult> PredictionService::PredictAsync(
    const ir::Graph& kernel, const ir::TileConfig* tile,
    PredictOptions options) {
  PendingRequest p;
  p.kernel = &kernel;
  p.hashes = kernel.FingerprintAndSignature();
  if (tile != nullptr) p.tile = *tile;
  if (options.deadline.has_value()) {
    p.deadline = *options.deadline;
  } else if (config_.request_timeout_us > 0) {
    p.deadline =
        Clock::now() + std::chrono::microseconds(config_.request_timeout_us);
  }
  std::future<PredictResult> future = p.promise.get_future();
  std::optional<PendingRequest> victim;  // shed under the lock, failed after
  {
    std::unique_lock lock(impl_->mu);
    if (impl_->stopping) {
      throw std::runtime_error(
          "PredictionService: PredictAsync after Shutdown");
    }
    const std::size_t cap = config_.queue_cap > 0
                                ? static_cast<std::size_t>(config_.queue_cap)
                                : static_cast<std::size_t>(-1);
    if (impl_->queue.size() >= cap) {
      switch (config_.overload_policy) {
        case OverloadPolicy::kReject:
          impl_->rejected.fetch_add(1, std::memory_order_relaxed);
          throw OverloadedError(
              "PredictionService: queue full (" + std::to_string(cap) +
              " waiting, policy reject)");
        case OverloadPolicy::kBlock:
          impl_->space_cv.wait(lock, [&] {
            return impl_->stopping || impl_->queue.size() < cap;
          });
          if (impl_->stopping) {
            throw std::runtime_error(
                "PredictionService: PredictAsync after Shutdown");
          }
          break;
        case OverloadPolicy::kShedOldest:
          victim = std::move(impl_->queue.front());
          impl_->queue.pop_front();
          impl_->shed.fetch_add(1, std::memory_order_relaxed);
          break;
      }
    }
    impl_->queue.push_back(std::move(p));
  }
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  impl_->cv.notify_one();
  if (victim.has_value()) {
    victim->promise.set_exception(std::make_exception_ptr(OverloadedError(
        "PredictionService: shed by a newer request (policy shed_oldest)")));
  }
  return future;
}

double PredictionService::Predict(const ir::Graph& kernel,
                                  const ir::TileConfig* tile) {
  return PredictAsync(kernel, tile).get().value;
}

void PredictionService::BatcherLoop() {
  ServiceImpl& impl = *impl_;
  const auto deadline_budget = std::chrono::microseconds(config_.deadline_us);
  const std::size_t max_batch = static_cast<std::size_t>(config_.max_batch);
  std::unique_lock lock(impl.mu);
  while (true) {
    impl.cv.wait(lock, [&] { return impl.stopping || !impl.queue.empty(); });
    if (impl.queue.empty()) break;  // stopping with nothing left to flush

    // A batch window opens at the first queued request the batcher observes;
    // it closes when the window fills, the deadline passes, or we shut down.
    const auto deadline = Clock::now() + deadline_budget;
    const bool filled = impl.cv.wait_until(lock, deadline, [&] {
      return impl.queue.size() >= max_batch || impl.stopping;
    });

    // Dequeue up to max_batch LIVE requests: expired ones fail with
    // DeadlineExceeded here, before they burn a batch slot.
    const auto now = Clock::now();
    std::vector<PendingRequest> batch;
    std::vector<PendingRequest> lapsed;
    batch.reserve(std::min(impl.queue.size(), max_batch));
    while (!impl.queue.empty() && batch.size() < max_batch) {
      PendingRequest p = std::move(impl.queue.front());
      impl.queue.pop_front();
      if (p.deadline.has_value() && now > *p.deadline) {
        lapsed.push_back(std::move(p));
      } else {
        batch.push_back(std::move(p));
      }
    }
    impl.space_cv.notify_all();  // freed queue space (policy `block`)

    if (!batch.empty()) {
      if (!filled) {
        impl.deadline_flushes.fetch_add(1, std::memory_order_relaxed);
      } else if (batch.size() + lapsed.size() >= max_batch) {
        impl.size_flushes.fetch_add(1, std::memory_order_relaxed);
      } else {
        impl.shutdown_flushes.fetch_add(1, std::memory_order_relaxed);
      }
      impl.batches.fetch_add(1, std::memory_order_relaxed);
      impl.batched_items.fetch_add(batch.size(), std::memory_order_relaxed);
      {
        std::lock_guard inflight_lock(impl.inflight_mu);
        ++impl.inflight_batches;
      }
    }
    lock.unlock();
    for (PendingRequest& p : lapsed) {
      impl.expired.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
          "PredictionService: request deadline passed before a batch slot "
          "was available")));
    }
    if (!batch.empty()) {
      // Fire and forget: Shutdown waits on the inflight counter, not on the
      // discarded future. With zero pool workers Submit runs the batch
      // inline right here, which is the intended width-1 degenerate mode.
      impl.pool.Submit([this, moved = std::make_shared<std::vector<
                                  PendingRequest>>(std::move(batch))]() mutable {
        ProcessBatch(*model_, *cache_, *fallback_, config_, std::move(*moved),
                     *impl_);
      });
    }
    lock.lock();
  }
}

void PredictionService::Shutdown() {
  ServiceImpl& impl = *impl_;
  std::lock_guard shutdown_lock(impl.shutdown_mu);
  if (impl.joined) return;
  {
    std::lock_guard lock(impl.mu);
    impl.stopping = true;
  }
  impl.cv.notify_all();
  impl.space_cv.notify_all();  // blocked producers must wake up and throw
  impl.batcher.join();  // the batcher drains the queue before exiting
  {
    std::unique_lock lock(impl.inflight_mu);
    impl.inflight_cv.wait(lock, [&] { return impl.inflight_batches == 0; });
  }
  impl.joined = true;
}

ServiceStats PredictionService::stats() const {
  const ServiceImpl& impl = *impl_;
  ServiceStats s;
  s.requests = impl.requests.load(std::memory_order_relaxed);
  s.completed = impl.completed.load(std::memory_order_relaxed);
  s.failed = impl.failed.load(std::memory_order_relaxed);
  s.batches = impl.batches.load(std::memory_order_relaxed);
  s.size_flushes = impl.size_flushes.load(std::memory_order_relaxed);
  s.deadline_flushes = impl.deadline_flushes.load(std::memory_order_relaxed);
  s.shutdown_flushes = impl.shutdown_flushes.load(std::memory_order_relaxed);
  s.batched_items = impl.batched_items.load(std::memory_order_relaxed);
  const plan::PlanCache::Counters plans = model_->plan_cache().counters();
  s.plan_hits = plans.hits - impl.plan_base.hits;
  s.plan_misses = plans.misses - impl.plan_base.misses;
  s.plan_compiles = plans.compiles - impl.plan_base.compiles;
  s.rejected = impl.rejected.load(std::memory_order_relaxed);
  s.shed = impl.shed.load(std::memory_order_relaxed);
  s.expired = impl.expired.load(std::memory_order_relaxed);
  s.degraded = impl.degraded.load(std::memory_order_relaxed);
  s.breaker_transitions =
      impl.breaker_transitions.load(std::memory_order_relaxed);
  return s;
}

PredictionService::BreakerState PredictionService::breaker_state() const {
  std::lock_guard lock(impl_->breaker_mu);
  return impl_->breaker_state;
}

}  // namespace tpuperf::serve
