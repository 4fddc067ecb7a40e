/// \file
/// A long-lived prediction engine with adaptive micro-batching (ROADMAP
/// "serving engine").
///
/// The paper's deployment target is a compiler autotuner issuing large
/// volleys of cost queries (§5.3); production model servers (TF-Serving,
/// Triton) face the same shape of load and answer it the same way this
/// service does: coalesce concurrent single predictions into one batched
/// forward pass, because a packed batch runs every dense layer as one large
/// GEMM (tpubench's serve_poisson workload measures the per-query cost).
///
/// ## Batching policy
///
/// Requests enter a queue; a dedicated batcher thread drains it into
/// batches, and each batch is packed (LearnedCostModel::PrepareBatch) and
/// scored by LearnedCostModel::PredictBatch, which replays a
/// plan::CompiledPlan from the model's plan cache (one compile per
/// batch-shape bucket). A batch is flushed when EITHER
///   * size trigger   — max_batch requests are waiting (default 64, the
///     packed-batch sweet spot the autotuner evaluators also use), or
///   * deadline trigger — deadline_us elapsed since the oldest queued
///     request was observed (bounds added latency under light load; 0
///     flushes immediately, degenerating to per-request batches), or
///   * shutdown — Shutdown() drains whatever is queued.
/// Flushed batches are handed to an owned core::ThreadPool, so a slow batch
/// never blocks the batcher from accumulating the next one.
///
/// ## Semantics
///
/// Results are EXACTLY the scores PredictScore would return for the same
/// (kernel, tile) — batching is a throughput optimization, never an accuracy
/// trade (tests/serve_test.cpp asserts bit-equality). Kernels are prepared
/// through a shared core::PreparedCache, so duplicate kernels across
/// requests featurize once. Per-request failures (a throwing featurization) fail that
/// request's future; other requests in the same batch complete normally.
///
/// The caller's Graph must stay alive until its future resolves (the service
/// featurizes lazily, on the batcher/worker side); tile configs are copied.
///
/// ## Failure model (docs/ARCHITECTURE.md "Failure model")
///
/// The queue is bounded (`queue_cap`); a full queue applies the configured
/// OverloadPolicy: `reject` throws OverloadedError from PredictAsync,
/// `block` waits for space (backpressure), `shed_oldest` fails the oldest
/// queued request's future with OverloadedError and accepts the new one.
/// Requests carry deadlines (PredictOptions::deadline, or the
/// `request_timeout_us` default); the batcher fails expired requests with
/// DeadlineExceeded at dequeue, before they burn a batch slot. A circuit
/// breaker watches model-level batch failures: after `breaker_failures`
/// consecutive ones it opens and requests are answered by the analytical
/// cost model (src/analytical) instead — tagged `PredictResult::degraded`,
/// deterministic, on the analytical scale (only comparable to other
/// degraded answers) — until a half-open probe batch succeeds against the
/// learned model again.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "analytical/analytical_model.h"
#include "core/cost_model.h"
#include "core/trainer.h"
#include "ir/graph.h"
#include "ir/tile.h"

namespace tpuperf::serve {

struct ServiceImpl;  // queue/pool/stats plumbing, defined in the .cpp

/// Thrown by PredictAsync (policy `reject`) and set on shed futures (policy
/// `shed_oldest`) when the bounded queue is full.
class OverloadedError : public std::runtime_error {
 public:
  explicit OverloadedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Set on a request's future when its deadline passed before a batch slot
/// was available (checked at dequeue).
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

/// What a full queue does to the next arrival.
enum class OverloadPolicy {
  kReject = 0,     // PredictAsync throws OverloadedError (fail fast)
  kBlock = 1,      // PredictAsync blocks until space frees (backpressure)
  kShedOldest = 2  // oldest queued future fails; the new request is accepted
};

/// Per-request knobs for PredictAsync.
struct PredictOptions {
  /// Absolute deadline; unset applies ServiceConfig::request_timeout_us
  /// (0 there = no deadline).
  std::optional<std::chrono::steady_clock::time_point> deadline;
};

/// One served answer. `degraded` answers come from the analytical fallback
/// (breaker open) and are on its scale, NOT the learned model's — callers
/// that cannot use a coarse estimate should treat them as soft failures.
struct PredictResult {
  double value = 0.0;
  bool degraded = false;
};

/// Service settings, set in code by the caller (the library reads no
/// environment for them). The constructor clamps negative values to 0 and
/// max_batch to at least 1.
struct ServiceConfig {
  // Size trigger: flush when this many requests are waiting.
  int max_batch = 64;
  // Deadline trigger: flush at most this long (microseconds) after the
  // oldest queued request was seen.
  long deadline_us = 200;
  // Worker threads processing flushed batches; 0 means
  // core::ThreadPool::DefaultNumThreads().
  int num_threads = 0;
  // Admission control: queued-request cap (0 = unbounded).
  int queue_cap = 4096;
  // What a full queue does to the next arrival.
  OverloadPolicy overload_policy = OverloadPolicy::kReject;
  // Default per-request deadline, microseconds from enqueue (0 = none);
  // PredictOptions::deadline overrides per request.
  long request_timeout_us = 0;
  // Circuit breaker: consecutive model-level batch failures that open it
  // (0 disables the breaker — failures keep failing futures).
  int breaker_failures = 3;
  // How long an open breaker degrades before probing the model again.
  long breaker_cooldown_us = 50000;
};

/// Monotonic counters, readable at any time (atomics; a snapshot is not a
/// consistent cut but every counter is exact once the service is idle).
struct ServiceStats {
  // Every accepted request resolves exactly one way:
  //   requests == completed + failed + shed + expired   (once idle)
  // with `degraded` a subset of `completed` and `rejected` never accepted.
  std::uint64_t requests = 0;          // accepted by PredictAsync
  std::uint64_t completed = 0;         // futures resolved with a value
  std::uint64_t failed = 0;            // futures resolved with a model or
                                       // featurization error
  std::uint64_t batches = 0;           // batches flushed to the workers
  std::uint64_t size_flushes = 0;      // flushed because max_batch waiting
  std::uint64_t deadline_flushes = 0;  // flushed because deadline_us elapsed
  std::uint64_t shutdown_flushes = 0;  // flushed by Shutdown() draining
  std::uint64_t batched_items = 0;     // requests summed over all batches
  // The model's plan-cache counters (plan::PlanCache::Counters) since the
  // service started; any PredictBatch on the served model counts.
  std::uint64_t plan_hits = 0;         // batches scored via a cached plan
  std::uint64_t plan_misses = 0;       // batches whose bucket had no plan yet
  std::uint64_t plan_compiles = 0;     // plans compiled and cached (== misses
                                       // unless a compile failed, which fails
                                       // its batch as a model error)
  std::uint64_t rejected = 0;          // PredictAsync threw OverloadedError
                                       // (never counted in `requests`)
  std::uint64_t shed = 0;              // accepted, then failed by shed_oldest
  std::uint64_t expired = 0;           // failed with DeadlineExceeded
  std::uint64_t degraded = 0;          // analytical-fallback answers (these
                                       // also count in `completed`)
  std::uint64_t breaker_transitions = 0;  // every breaker state change

  double mean_batch_size() const noexcept {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_items) /
                              static_cast<double>(batches);
  }
};

class PredictionService {
 public:
  /// Serves a trained (fitted) model. Throws std::invalid_argument when the
  /// model's scalers were never fitted (it could not predict anything).
  explicit PredictionService(std::unique_ptr<core::LearnedCostModel> model,
                             ServiceConfig config = {});
  /// Constructs the whole engine from one snapshot file
  /// (serve::SaveModelSnapshot), retrying transient load failures with
  /// bounded backoff (LoadModelSnapshotWithRetry). Throws data::StoreError
  /// when the final attempt still fails.
  explicit PredictionService(const std::string& snapshot_path,
                             ServiceConfig config = {});
  /// Drains and stops (equivalent to Shutdown()).
  ~PredictionService();
  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Breaker states (see the failure model above). Exposed for tests and
  /// monitoring; transitions are counted in ServiceStats.
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// Enqueues one prediction; the future resolves with PredictScore's value
  /// for (kernel, tile) once a batch containing it completes — or with a
  /// tagged degraded analytical estimate while the breaker is open, or
  /// exceptionally (OverloadedError when shed, DeadlineExceeded when
  /// expired, the model's error otherwise). Throws std::runtime_error after
  /// Shutdown() and OverloadedError when full under policy `reject`; blocks
  /// when full under policy `block`. `tile` may be null; it is copied.
  std::future<PredictResult> PredictAsync(const ir::Graph& kernel,
                                          const ir::TileConfig* tile = nullptr,
                                          PredictOptions options = {});

  /// Synchronous convenience wrapper: PredictAsync(...).get().value.
  double Predict(const ir::Graph& kernel,
                 const ir::TileConfig* tile = nullptr);

  /// Stops accepting requests, flushes every queued request, waits for all
  /// in-flight batches, and joins the batcher. Every future issued before
  /// the call resolves. Idempotent; called by the destructor.
  void Shutdown();

  ServiceStats stats() const;
  BreakerState breaker_state() const;
  const ServiceConfig& config() const noexcept { return config_; }
  const core::LearnedCostModel& model() const noexcept { return *model_; }
  /// The shared prepare cache (exposed for tests and cache-warming).
  core::PreparedCache& prepared_cache() noexcept { return *cache_; }

 private:
  void BatcherLoop();

  ServiceConfig config_;
  std::unique_ptr<core::LearnedCostModel> model_;
  std::unique_ptr<core::PreparedCache> cache_;
  std::unique_ptr<analytical::AnalyticalModel> fallback_;
  std::unique_ptr<ServiceImpl> impl_;
};

}  // namespace tpuperf::serve
