// Robustness suite for the production-hardened serving path: the
// deterministic fault-injection registry (grammar, schedules, counters),
// admission control (reject / block / shed_oldest), per-request deadlines,
// the circuit breaker's closed -> open -> half-open -> closed cycle with
// analytical-fallback degradation, snapshot-load retry, and clean Shutdown
// (no stranded futures) under every compiled-in fault point. The final test
// honors TPUPERF_FAULTS from the environment so CI's chaos matrix can replay
// it under each armed fault.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analytical/analytical_model.h"
#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "dataset/store.h"
#include "ir/builder.h"
#include "serve/prediction_service.h"
#include "serve/snapshot.h"
#include "sim/target.h"

namespace tpuperf::serve {
namespace {

using core::FaultRegistry;

// Arms an exact schedule for one test, then restores whatever TPUPERF_FAULTS
// says (usually: nothing). Restoring the environment — not blindly
// disarming — keeps these tests meaningful inside the CI chaos job, where
// the env-honoring ChaosShutdown test must still see the matrix's faults.
struct ScopedFaults {
  explicit ScopedFaults(std::string_view spec) {
    FaultRegistry::Instance().ArmSpec(spec);
  }
  ~ScopedFaults() { FaultRegistry::Instance().ArmFromEnv(); }
};

// Same generator shape as serve_test, so robustness batches look like
// serving batches.
ir::Graph RandomKernel(std::uint64_t seed, int target_nodes) {
  std::mt19937_64 rng(seed);
  ir::GraphBuilder b;
  std::vector<ir::NodeId> pool;
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  std::uniform_int_distribution<int> op_pick(0, 3);
  while (static_cast<int>(pool.size()) < target_nodes) {
    std::uniform_int_distribution<size_t> node_pick(0, pool.size() - 1);
    const ir::NodeId x = pool[node_pick(rng)];
    switch (op_pick(rng)) {
      case 0:
        pool.push_back(b.Tanh(x));
        break;
      case 1:
        pool.push_back(b.Relu(x));
        break;
      case 2:
        pool.push_back(b.Unary(ir::OpCode::kExp, x));
        break;
      default:
        pool.push_back(b.Binary(ir::OpCode::kAdd, x, pool[node_pick(rng)]));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

core::ModelConfig SmallConfig() {
  core::ModelConfig c = core::ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  return c;
}

struct Fixture {
  std::vector<ir::Graph> kernels;
  std::vector<ir::TileConfig> tiles;

  explicit Fixture(int num_kernels = 4) {
    for (int k = 0; k < num_kernels; ++k) {
      kernels.push_back(
          RandomKernel(4000 + static_cast<std::uint64_t>(k) * 31, 5 + 4 * k));
      tiles.push_back(
          ir::TileConfig{{static_cast<std::int64_t>(1 << (k % 5)), 8}});
    }
  }

  std::unique_ptr<core::LearnedCostModel> MakeModel() const {
    auto model = std::make_unique<core::LearnedCostModel>(SmallConfig());
    for (const auto& kernel : kernels) model->FitNodeScaler(kernel);
    for (const auto& tile : tiles) model->FitTileScaler(tile);
    model->FinishFitting();
    return model;
  }
};

// ---- Fault registry --------------------------------------------------------

TEST(FaultRegistry, EveryAfterScheduleIsExact) {
  ScopedFaults faults("test.point:every=3,after=2");
  auto& reg = FaultRegistry::Instance();
  ASSERT_TRUE(reg.armed("test.point"));
  // Hit h (1-based) fires iff h > 2 and (h - 2) % 3 == 0: hits 5 and 8.
  std::vector<bool> pattern;
  for (int h = 1; h <= 10; ++h) {
    pattern.push_back(core::FaultPointFires("test.point"));
  }
  const std::vector<bool> expected = {false, false, false, false, true,
                                      false, false, true,  false, false};
  EXPECT_EQ(pattern, expected);
  EXPECT_EQ(reg.hits("test.point"), 10u);
  EXPECT_EQ(reg.fired("test.point"), 2u);
}

TEST(FaultRegistry, BarePointFiresEveryHit) {
  ScopedFaults faults("test.always");
  for (int h = 0; h < 5; ++h) {
    EXPECT_TRUE(core::FaultPointFires("test.always"));
  }
  EXPECT_FALSE(core::FaultPointFires("test.other"));  // unarmed points never
}

TEST(FaultRegistry, TimesCapsTotalInjections) {
  ScopedFaults faults("test.transient:every=1,times=2");
  int fired = 0;
  for (int h = 0; h < 6; ++h) {
    if (core::FaultPointFires("test.transient")) ++fired;
  }
  EXPECT_EQ(fired, 2);  // the first two hits only — a transient fault
  EXPECT_EQ(FaultRegistry::Instance().fired("test.transient"), 2u);
  EXPECT_EQ(FaultRegistry::Instance().hits("test.transient"), 6u);
}

TEST(FaultRegistry, MalformedEntriesWarnAndSkipOthersSurvive) {
  ScopedFaults faults(
      "bad.value:every=zero;good.point:every=2;bad.key:frequency=3;"
      ":every=1;bad.shape:every");
  auto& reg = FaultRegistry::Instance();
  EXPECT_FALSE(reg.armed("bad.value"));
  EXPECT_FALSE(reg.armed("bad.key"));
  EXPECT_FALSE(reg.armed("bad.shape"));
  ASSERT_TRUE(reg.armed("good.point"));
  EXPECT_FALSE(core::FaultPointFires("good.point"));  // hit 1
  EXPECT_TRUE(core::FaultPointFires("good.point"));   // hit 2
}

TEST(FaultRegistry, EmptySpecDisarmsEverything) {
  FaultRegistry::Instance().ArmSpec("test.point");
  FaultRegistry::Instance().ArmSpec("");
  EXPECT_FALSE(FaultRegistry::Instance().armed("test.point"));
  EXPECT_FALSE(core::FaultPointFires("test.point"));
  FaultRegistry::Instance().ArmFromEnv();
}

TEST(FaultRegistry, MaybeInjectThrowsTypedErrorNamingThePoint) {
  ScopedFaults faults("test.throwing");
  try {
    core::MaybeInjectFault("test.throwing");
    FAIL() << "armed point did not throw";
  } catch (const core::FaultInjected& e) {
    EXPECT_NE(std::string(e.what()).find("test.throwing"), std::string::npos)
        << e.what();
  }
}

// The schedule is a pure function of the hit sequence, so the total fired
// count is exact no matter how threads interleave.
TEST(FaultRegistry, FiredCountIsExactUnderConcurrency) {
  ScopedFaults faults("test.mt:every=3");
  constexpr int kThreads = 4;
  constexpr int kHitsPerThread = 75;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int h = 0; h < kHitsPerThread; ++h) {
        (void)core::FaultPointFires("test.mt");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(FaultRegistry::Instance().hits("test.mt"),
            static_cast<std::uint64_t>(kThreads * kHitsPerThread));
  EXPECT_EQ(FaultRegistry::Instance().fired("test.mt"),
            static_cast<std::uint64_t>(kThreads * kHitsPerThread / 3));
}

// ---- Deadlines -------------------------------------------------------------

TEST(ServeDeadline, ExpiredRequestFailsWithoutBurningABatchSlot) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx(2);
  ServiceConfig config;
  config.max_batch = 8;
  config.deadline_us = 1000;
  config.num_threads = 1;
  PredictionService service(fx.MakeModel(), config);

  PredictOptions lapsed;
  lapsed.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  std::future<PredictResult> dead =
      service.PredictAsync(fx.kernels[0], &fx.tiles[0], lapsed);
  std::future<PredictResult> live =
      service.PredictAsync(fx.kernels[1], &fx.tiles[1]);

  EXPECT_THROW(dead.get(), DeadlineExceeded);
  EXPECT_FALSE(live.get().degraded);

  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batched_items, 1u);  // the expired one never joined a batch
}

TEST(ServeDeadline, RequestTimeoutConfigAppliesToEveryRequest) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx(3);
  ServiceConfig config;
  config.max_batch = 64;
  config.deadline_us = 50000;        // 50 ms window: nothing flushes early
  config.request_timeout_us = 1000;  // 1 ms: all three expire in the window
  config.num_threads = 1;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (auto& f : futures) EXPECT_THROW(f.get(), DeadlineExceeded);

  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 3u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.requests, stats.completed + stats.failed + stats.shed +
                                stats.expired);
}

// ---- Admission control -----------------------------------------------------

// queue_cap=3 with a never-filling window (max_batch=8, 10 s deadline) keeps
// the queue holding exactly the first three requests until Shutdown drains
// them — so the fourth arrival deterministically sees a full queue.
ServiceConfig FullQueueConfig(OverloadPolicy policy) {
  ServiceConfig config;
  config.max_batch = 8;
  config.deadline_us = 10000000;
  config.num_threads = 1;
  config.queue_cap = 3;
  config.overload_policy = policy;
  return config;
}

TEST(ServeAdmission, RejectPolicyThrowsAndCountsWithoutAccepting) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx;
  PredictionService service(fx.MakeModel(),
                            FullQueueConfig(OverloadPolicy::kReject));
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  EXPECT_THROW(service.PredictAsync(fx.kernels[3], &fx.tiles[3]),
               OverloadedError);

  service.Shutdown();
  for (auto& f : futures) EXPECT_FALSE(f.get().degraded);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.requests, 3u);  // the rejected request was never accepted
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServeAdmission, ShedOldestFailsTheOldestAndAcceptsTheNew) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx;
  PredictionService service(fx.MakeModel(),
                            FullQueueConfig(OverloadPolicy::kShedOldest));
  std::vector<std::future<PredictResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  // The fourth arrival shed the first: its future is already failed, before
  // any shutdown or flush.
  ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_THROW(futures[0].get(), OverloadedError);

  service.Shutdown();
  for (int i = 1; i < 4; ++i) EXPECT_FALSE(futures[i].get().degraded);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.requests, 4u);  // shed requests WERE accepted
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.requests, stats.completed + stats.failed + stats.shed +
                                stats.expired);
}

TEST(ServeAdmission, BlockPolicyBackpressuresAndLosesNothing) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx;
  ServiceConfig config;
  config.max_batch = 8;
  config.deadline_us = 2000;  // windows flush, space frees, producers resume
  config.num_threads = 1;
  config.queue_cap = 1;
  config.overload_policy = OverloadPolicy::kBlock;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  for (int r = 0; r < 6; ++r) {
    const size_t i = static_cast<size_t>(r) % fx.kernels.size();
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (auto& f : futures) EXPECT_FALSE(f.get().degraded);

  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(ServeAdmission, ShutdownUnblocksAWaitingProducer) {
  ScopedFaults quiet("");  // admission semantics, not fault behaviour
  Fixture fx(2);
  ServiceConfig config = FullQueueConfig(OverloadPolicy::kBlock);
  config.queue_cap = 1;
  PredictionService service(fx.MakeModel(), config);

  std::future<PredictResult> first =
      service.PredictAsync(fx.kernels[0], &fx.tiles[0]);
  std::thread producer([&] {
    // Queue is at capacity and the window cannot fill: this blocks until
    // Shutdown wakes it, and then it must throw instead of hanging.
    EXPECT_THROW(service.PredictAsync(fx.kernels[1], &fx.tiles[1]),
                 std::runtime_error);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Shutdown();
  producer.join();
  EXPECT_FALSE(first.get().degraded);
}

// ---- Circuit breaker and degradation ---------------------------------------

// num_threads=1 runs batches inline on the batcher; issuing one request at a
// time and waiting for it makes every batch (and every breaker decision)
// strictly ordered, so the whole cycle is deterministic.
TEST(ServeBreaker, OpensAfterConsecutiveFailuresThenProbesClosed) {
  Fixture fx(1);
  ServiceConfig config;
  config.max_batch = 1;
  config.deadline_us = 0;
  config.num_threads = 1;
  config.breaker_failures = 2;
  config.breaker_cooldown_us = 0;  // the very next batch probes
  PredictionService service(fx.MakeModel(), config);

  // The model fails exactly twice, then recovers.
  ScopedFaults faults("model.predict_throw:every=1,times=2");

  // Failure 1: breaker stays closed (1 < 2), but the failing batch itself is
  // answered analytically instead of failing the future.
  const PredictResult r1 =
      service.PredictAsync(fx.kernels[0], &fx.tiles[0]).get();
  EXPECT_TRUE(r1.degraded);
  EXPECT_EQ(service.breaker_state(), PredictionService::BreakerState::kClosed);

  // Failure 2: threshold reached — the breaker opens.
  const PredictResult r2 =
      service.PredictAsync(fx.kernels[0], &fx.tiles[0]).get();
  EXPECT_TRUE(r2.degraded);
  EXPECT_EQ(service.breaker_state(), PredictionService::BreakerState::kOpen);

  // Cooldown (zero) elapsed: this batch is the half-open probe; the model is
  // healthy again, so it closes the breaker and serves a real score.
  const PredictResult r3 =
      service.PredictAsync(fx.kernels[0], &fx.tiles[0]).get();
  EXPECT_FALSE(r3.degraded);

  // The probe's future resolves just before the breaker bookkeeping runs on
  // the batcher thread; Shutdown joins it, making the state check exact.
  service.Shutdown();
  EXPECT_EQ(service.breaker_state(), PredictionService::BreakerState::kClosed);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);  // degradation resolved every future
  EXPECT_EQ(stats.degraded, 2u);
  // closed->open, open->half-open, half-open->closed.
  EXPECT_EQ(stats.breaker_transitions, 3u);
}

TEST(ServeBreaker, DisabledBreakerFailsFuturesLikeBefore) {
  Fixture fx(1);
  ServiceConfig config;
  config.max_batch = 1;
  config.deadline_us = 0;
  config.num_threads = 1;
  config.breaker_failures = 0;  // opt out: the pre-robustness contract
  PredictionService service(fx.MakeModel(), config);

  ScopedFaults faults("model.predict_throw:every=1,times=1");
  EXPECT_THROW(service.PredictAsync(fx.kernels[0], &fx.tiles[0]).get(),
               core::FaultInjected);
  EXPECT_FALSE(service.PredictAsync(fx.kernels[0], &fx.tiles[0])
                   .get()
                   .degraded);
  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.degraded, 0u);
  EXPECT_EQ(stats.breaker_transitions, 0u);
}

// Plan replay is the only scoring path, so a failed CompilePlan is a
// model-level batch failure. With the breaker disabled the whole batch's
// futures carry the error and no plan is cached; the next batch compiles
// afresh and serves PredictScore's exact values. The references are scored
// on the served model itself, so its plan cache has counted before the
// service starts: the service's plan counters must start at zero anyway.
TEST(ServeBreaker, FailedPlanCompileFailsTheBatchThenRecompiles) {
  Fixture fx(2);
  auto model = fx.MakeModel();
  std::vector<double> direct;
  {
    ScopedFaults quiet("");  // PredictScore compiles plans too
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      direct.push_back(
          model->PredictScore(model->Prepare(fx.kernels[i]), &fx.tiles[i]));
    }
  }
  ASSERT_GT(model->plan_cache().counters().misses, 0u);
  ServiceConfig config;
  config.max_batch = 2;           // both requests flush as one batch...
  config.deadline_us = 10000000;  // ...on size, never on the deadline
  config.num_threads = 1;
  config.breaker_failures = 0;
  PredictionService service(std::move(model), config);

  ScopedFaults faults("plan.compile_fail:every=1,times=1");
  std::vector<std::future<PredictResult>> first;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    first.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (auto& f : first) EXPECT_THROW(f.get(), core::FaultInjected);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_compiles, 0u);
  EXPECT_EQ(stats.failed, 2u);

  std::vector<std::future<PredictResult>> second;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    second.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (size_t i = 0; i < second.size(); ++i) {
    const PredictResult r = second[i].get();
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.value, direct[i]) << "kernel " << i;
  }
  service.Shutdown();
  stats = service.stats();
  EXPECT_EQ(stats.plan_misses, 2u);
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.degraded, 0u);
}

// Degraded answers are the analytical model's deterministic estimates — the
// same value on every ask, and exactly what a direct AnalyticalModel call
// returns for the same (kernel, tile).
TEST(ServeBreaker, DegradedAnswersAreTaggedAndDeterministic) {
  Fixture fx(2);
  ServiceConfig config;
  config.max_batch = 1;
  config.deadline_us = 0;
  config.num_threads = 1;
  config.breaker_failures = 1;
  config.breaker_cooldown_us = 10000000;  // stays open for the whole test
  PredictionService service(fx.MakeModel(), config);

  ScopedFaults faults("model.predict_throw:every=1,times=1");
  // Trip the breaker open with one failure.
  EXPECT_TRUE(service.PredictAsync(fx.kernels[0], &fx.tiles[0]).get().degraded);
  ASSERT_EQ(service.breaker_state(), PredictionService::BreakerState::kOpen);

  const analytical::AnalyticalModel direct(sim::TpuTarget::V2());
  const double expected =
      direct.EstimateRuntime(fx.kernels[1], fx.tiles[1]);
  const PredictResult a =
      service.PredictAsync(fx.kernels[1], &fx.tiles[1]).get();
  const PredictResult b =
      service.PredictAsync(fx.kernels[1], &fx.tiles[1]).get();
  EXPECT_TRUE(a.degraded);
  EXPECT_TRUE(b.degraded);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.value, expected);

  // Tile-less requests degrade under the trivial full-shape tile.
  const ir::Shape& root_shape =
      fx.kernels[1].node(fx.kernels[1].RootId()).shape;
  ir::TileConfig full;
  for (int i = 0; i < root_shape.rank(); ++i) {
    full.dims.push_back(root_shape.dim(i));
  }
  const PredictResult no_tile = service.PredictAsync(fx.kernels[1]).get();
  EXPECT_TRUE(no_tile.degraded);
  EXPECT_EQ(no_tile.value, direct.EstimateRuntime(fx.kernels[1], full));
  EXPECT_EQ(service.breaker_state(), PredictionService::BreakerState::kOpen);
}

// ---- Snapshot retry --------------------------------------------------------

std::string TempSnapshotPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tpuperf_robustness_test_") + name + ".tpms"))
      .string();
}

TEST(SnapshotRetry, TransientLoadFailuresAreRetriedAway) {
  Fixture fx(2);
  const std::string path = TempSnapshotPath("transient");
  SaveModelSnapshot(path, *fx.MakeModel());

  // The first two load attempts fail; the third succeeds inside the retry
  // budget.
  ScopedFaults faults("snapshot.load_fail:every=1,times=2");
  auto model = LoadModelSnapshotWithRetry(path, /*max_attempts=*/3,
                                          std::chrono::microseconds(100));
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->fitted());
  EXPECT_EQ(FaultRegistry::Instance().fired("snapshot.load_fail"), 2u);
  std::filesystem::remove(path);
}

TEST(SnapshotRetry, ExhaustedAttemptsRethrowTheStoreError) {
  Fixture fx(2);
  const std::string path = TempSnapshotPath("exhausted");
  SaveModelSnapshot(path, *fx.MakeModel());

  ScopedFaults faults("snapshot.load_fail:every=1");
  EXPECT_THROW(LoadModelSnapshotWithRetry(path, /*max_attempts=*/3,
                                          std::chrono::microseconds(100)),
               data::StoreError);
  EXPECT_EQ(FaultRegistry::Instance().hits("snapshot.load_fail"), 3u);
  std::filesystem::remove(path);
}

TEST(SnapshotRetry, ServiceSnapshotConstructorSurvivesATransientFailure) {
  Fixture fx(2);
  auto model = fx.MakeModel();
  double direct = 0.0;
  {
    ScopedFaults quiet("");  // PredictScore compiles a plan
    direct = model->PredictScore(model->Prepare(fx.kernels[0]), &fx.tiles[0]);
  }
  const std::string path = TempSnapshotPath("service_ctor");
  SaveModelSnapshot(path, *model);

  ScopedFaults faults("snapshot.load_fail:every=1,times=1");
  PredictionService service(path);
  EXPECT_EQ(service.Predict(fx.kernels[0], &fx.tiles[0]), direct);
  std::filesystem::remove(path);
}

// ---- Shutdown under fire ---------------------------------------------------

// Every issued future must be ready after Shutdown — resolved with a value
// or an error, never stranded — and the accounting partition must hold:
// requests == completed + failed + shed + expired.
void ExpectCleanDrain(PredictionService& service,
                      std::vector<std::future<PredictResult>>& futures,
                      const char* context) {
  service.Shutdown();
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << context << ": future " << i << " stranded after Shutdown";
    try {
      (void)futures[i].get();
    } catch (const std::exception&) {
      // Failing is a legal outcome under fire; hanging is not.
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            stats.completed + stats.failed + stats.shed + stats.expired)
      << context;
  EXPECT_EQ(stats.requests, futures.size()) << context;
  EXPECT_GE(stats.completed, stats.degraded) << context;
}

std::vector<std::future<PredictResult>> HammerService(
    PredictionService& service, const Fixture& fx, int threads,
    int per_thread) {
  std::vector<std::future<PredictResult>> futures;
  std::mutex futures_mu;
  std::vector<std::thread> clients;
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(c) * 131 + 7);
      std::uniform_int_distribution<size_t> pick(0, fx.kernels.size() - 1);
      for (int r = 0; r < per_thread; ++r) {
        const size_t i = pick(rng);
        const ir::TileConfig* tile = (r % 5 == 0) ? nullptr : &fx.tiles[i];
        try {
          std::future<PredictResult> f =
              service.PredictAsync(fx.kernels[i], tile);
          std::lock_guard lock(futures_mu);
          futures.push_back(std::move(f));
        } catch (const OverloadedError&) {
          // Rejected at admission: no future was issued. Legal under load.
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  return futures;
}

class FaultPointDrainTest : public ::testing::TestWithParam<const char*> {};

// Arm each compiled-in fault point in turn and prove Shutdown still resolves
// every future. featurize.throw fails individual requests;
// plan.compile_fail and model.predict_throw fail whole batches, which
// exercises breaker + degradation; batch.slow stalls workers while
// deadlines keep running.
TEST_P(FaultPointDrainTest, ShutdownStrandsNoFutures) {
  ScopedFaults faults(GetParam());
  Fixture fx;
  ServiceConfig config;
  config.max_batch = 4;
  config.deadline_us = 100;
  config.num_threads = 2;
  PredictionService service(fx.MakeModel(), config);
  std::vector<std::future<PredictResult>> futures =
      HammerService(service, fx, /*threads=*/4, /*per_thread=*/12);
  EXPECT_EQ(futures.size(), 48u);  // default cap (4096) never rejects here
  ExpectCleanDrain(service, futures, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EveryFaultPoint, FaultPointDrainTest,
    ::testing::Values("featurize.throw:every=2", "plan.compile_fail:every=1",
                      "model.predict_throw:every=3", "batch.slow:every=1"));

// The env-honoring chaos test: CI's chaos job sets TPUPERF_FAULTS and
// re-runs the binary; whatever is armed there, heavy concurrent traffic
// followed by Shutdown must leave no future unresolved and the stats
// partition intact. With the env unset this is a fault-free stress run.
TEST(ChaosShutdown, EnvArmedFaultsCannotStrandFutures) {
  FaultRegistry::Instance().ArmFromEnv();
  Fixture fx;
  ServiceConfig config;
  config.max_batch = 8;
  config.deadline_us = 200;
  config.num_threads = 4;
  config.queue_cap = 256;
  config.request_timeout_us = 250000;  // generous; still exercised when slow
  PredictionService service(fx.MakeModel(), config);
  std::vector<std::future<PredictResult>> futures =
      HammerService(service, fx, /*threads=*/4, /*per_thread=*/50);
  ExpectCleanDrain(service, futures, "chaos");
}

}  // namespace
}  // namespace tpuperf::serve
