// Tests for the thread-pool subsystem and every parallel hot path's
// determinism contract: ParallelFor coverage/partitioning/exceptions,
// multi-threaded PreparedCache reuse + collision behaviour, and exact
// parallel-vs-serial parity for the matrix kernels, PredictBatch across the
// architecture grid, trainer losses, and the batched evaluator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "autotuner/evaluators.h"
#include "core/cost_model.h"
#include "core/env.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "dataset/families.h"
#include "ir/builder.h"
#include "nn/matrix.h"

namespace tpuperf::core {
namespace {

// Restores the global pool to the environment default on scope exit so
// tests can't leak a pool size into each other.
struct PoolGuard {
  ~PoolGuard() { ThreadPool::SetNumThreads(ThreadPool::DefaultNumThreads()); }
};

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(3, 1003, 7, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        hits[static_cast<size_t>(i - 3)].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  const auto chunks_at = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.ParallelFor(0, 103, 10, [&](std::int64_t lo, std::int64_t hi) {
      std::scoped_lock lock(mu);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(chunks_at(1), chunks_at(4));
  EXPECT_EQ(chunks_at(4), chunks_at(7));
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 5,
                       [](std::int64_t lo, std::int64_t) {
                         if (lo >= 50) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a failed loop.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 20, 1,
                   [&](std::int64_t lo, std::int64_t hi) {
                     count.fetch_add(static_cast<int>(hi - lo));
                   });
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, SubmitReturnsTaskFuture) {
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    auto f1 = pool.Submit([] { return 41 + 1; });
    auto f2 = pool.Submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
  }
}

TEST(ThreadPool, SerialPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.ParallelFor(0, 32, 4, [&](std::int64_t, std::int64_t) {
    if (std::this_thread::get_id() != caller) same_thread = false;
  });
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.ParallelFor(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // Nested loops run on the global pool from a worker thread.
      ThreadPool::Global().ParallelFor(
          0, 64, 8, [&](std::int64_t jlo, std::int64_t jhi) {
            total.fetch_add(jhi - jlo);
          });
    }
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

// A stopped pool must refuse new work with a typed error — not strand a
// future or run tasks on a half-torn-down pool. Both the inline (width 1)
// and worker (width > 1) paths throw.
TEST(ThreadPool, SubmitAfterShutdownThrowsTyped) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
    pool.Shutdown();
    EXPECT_TRUE(pool.stopped());
    EXPECT_THROW(pool.Submit([] { return 0; }), ThreadPoolStopped);
    pool.Shutdown();  // idempotent
    EXPECT_THROW(pool.Submit([] { return 0; }), ThreadPoolStopped);
  }
}

TEST(ThreadPool, ParallelForAfterShutdownThrowsTyped) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    pool.Shutdown();
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(0, 16, 4,
                         [&](std::int64_t, std::int64_t) { ran.fetch_add(1); }),
        ThreadPoolStopped);
    EXPECT_EQ(ran.load(), 0);  // rejected up front, nothing partially ran
  }
}

TEST(ThreadPool, EnvVarOverridesDefaultThreadCount) {
  ASSERT_EQ(setenv("TPUPERF_NUM_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 3);
  ASSERT_EQ(setenv("TPUPERF_NUM_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);  // clamped
  ASSERT_EQ(unsetenv("TPUPERF_NUM_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

// ---- Matrix kernel parity --------------------------------------------------

nn::Matrix RandomMatrix(int rows, int cols, std::uint64_t seed,
                        double zero_fraction = 0.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::bernoulli_distribution zero(zero_fraction);
  nn::Matrix m(rows, cols);
  for (float& v : m.flat()) v = zero(rng) ? 0.0f : dist(rng);
  return m;
}

// Every GEMM variant must produce bit-identical outputs at any pool size
// (row/column partitions recompute the same per-element float sequences).
TEST(MatrixParallel, KernelsBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const nn::Matrix a = RandomMatrix(512, 96, 1);
  const nn::Matrix b = RandomMatrix(96, 80, 2);
  const nn::Matrix a_sparse = RandomMatrix(512, 96, 3, /*zero_fraction=*/0.9);
  const nn::Matrix at = RandomMatrix(96, 512, 4);        // for a^T @ b
  const nn::Matrix at_sparse = RandomMatrix(96, 512, 5, 0.9);
  const nn::Matrix bt = RandomMatrix(80, 96, 6);         // for a @ b^T

  ThreadPool::SetNumThreads(1);
  const nn::Matrix mm1 = nn::MatMul(a, b);
  const nn::Matrix sp1 = nn::MatMul(a_sparse, b);
  const nn::Matrix ta1 = nn::MatMulTransposeA(at, b);
  const nn::Matrix tas1 = nn::MatMulTransposeA(at_sparse, b);
  const nn::Matrix tb1 = nn::MatMulTransposeB(a, bt);

  ThreadPool::SetNumThreads(4);
  EXPECT_EQ(nn::MaxAbsDiff(nn::MatMul(a, b), mm1), 0.0f);
  EXPECT_EQ(nn::MaxAbsDiff(nn::MatMul(a_sparse, b), sp1), 0.0f);
  EXPECT_EQ(nn::MaxAbsDiff(nn::MatMulTransposeA(at, b), ta1), 0.0f);
  EXPECT_EQ(nn::MaxAbsDiff(nn::MatMulTransposeA(at_sparse, b), tas1), 0.0f);
  EXPECT_EQ(nn::MaxAbsDiff(nn::MatMulTransposeB(a, bt), tb1), 0.0f);
}

// The register-tiled transpose kernels must agree with the textbook loops.
TEST(MatrixParallel, TiledTransposeKernelsMatchReference) {
  const nn::Matrix a = RandomMatrix(70, 130, 11);  // odd sizes hit remainders
  const nn::Matrix b = RandomMatrix(70, 37, 12);
  nn::Matrix ref_ta(a.cols(), b.cols());
  for (int p = 0; p < a.rows(); ++p) {
    for (int i = 0; i < a.cols(); ++i) {
      for (int j = 0; j < b.cols(); ++j) {
        ref_ta.at(i, j) += a.at(p, i) * b.at(p, j);
      }
    }
  }
  const nn::Matrix ta = nn::MatMulTransposeA(a, b);
  ASSERT_TRUE(ta.same_shape(ref_ta));
  EXPECT_LE(nn::MaxAbsDiff(ta, ref_ta), 1e-5f);

  const nn::Matrix c = RandomMatrix(41, 53, 13);
  const nn::Matrix d = RandomMatrix(29, 53, 14);
  nn::Matrix ref_tb(c.rows(), d.rows());
  for (int i = 0; i < c.rows(); ++i) {
    for (int j = 0; j < d.rows(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < c.cols(); ++p) acc += c.at(i, p) * d.at(j, p);
      ref_tb.at(i, j) = acc;
    }
  }
  const nn::Matrix tb = nn::MatMulTransposeB(c, d);
  ASSERT_TRUE(tb.same_shape(ref_tb));
  EXPECT_LE(nn::MaxAbsDiff(tb, ref_tb), 1e-5f);
}

// ---- Model fixtures --------------------------------------------------------

// A random elementwise kernel (same generator family as batch_test).
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
      case 0: pool.push_back(b.Tanh(x)); break;
      case 1: pool.push_back(b.Relu(x)); break;
      case 2: pool.push_back(b.Unary(ir::OpCode::kExp, x)); break;
      default:
        pool.push_back(b.Binary(ir::OpCode::kAdd, x, pool[node_pick(rng)]));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

ModelConfig SmallConfig() {
  ModelConfig c = ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  return c;
}

// ---- PreparedCache under contention ----------------------------------------

TEST(PreparedCacheThreaded, ConcurrentGetsShareOneEntryPerKernel) {
  LearnedCostModel model(SmallConfig());
  std::vector<ir::Graph> kernels;
  for (int k = 0; k < 6; ++k) {
    kernels.push_back(RandomKernel(500 + static_cast<std::uint64_t>(k), 8 + k));
  }
  for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();
  std::vector<ir::Graph::Hashes> hashes;
  for (const auto& kernel : kernels) {
    hashes.push_back(kernel.FingerprintAndSignature());
  }

  PreparedCache cache(model);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::vector<const PreparedKernel*>> seen(
      kThreads, std::vector<const PreparedKernel*>(kernels.size(), nullptr));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) * 77 + 1);
      std::uniform_int_distribution<size_t> pick(0, kernels.size() - 1);
      for (int i = 0; i < kIters; ++i) {
        const size_t k = pick(rng);
        const PreparedKernel& pk = cache.Get(
            kernels[k], hashes[k].fingerprint, hashes[k].signature);
        if (seen[static_cast<size_t>(t)][k] == nullptr) {
          seen[static_cast<size_t>(t)][k] = &pk;
        } else {
          // Reuse: the reference must be stable across the whole run.
          ASSERT_EQ(seen[static_cast<size_t>(t)][k], &pk);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(cache.size(), kernels.size());
  EXPECT_EQ(cache.collisions(), 0u);
  // All threads resolved each kernel to the same entry.
  for (size_t k = 0; k < kernels.size(); ++k) {
    for (int t = 1; t < kThreads; ++t) {
      if (seen[static_cast<size_t>(t)][k] != nullptr && seen[0][k] != nullptr) {
        EXPECT_EQ(seen[static_cast<size_t>(t)][k], seen[0][k]);
      }
    }
  }
}

TEST(PreparedCacheThreaded, ConcurrentCollisionKeepsBothEntries) {
  LearnedCostModel model(SmallConfig());
  const ir::Graph small = RandomKernel(71, 5);
  const ir::Graph large = RandomKernel(72, 19);
  model.FitNodeScaler(small);
  model.FitNodeScaler(large);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();

  PreparedCache cache(model);
  const std::uint64_t shared_key = 0xDEADBEEFull;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        const ir::Graph& g = ((t + i) % 2 == 0) ? small : large;
        const PreparedKernel& pk =
            cache.Get(g, shared_key, g.StructuralSignature());
        ASSERT_EQ(pk.num_nodes, g.num_nodes());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly one entry per distinct graph, one collision counted, regardless
  // of interleaving.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_NE(&cache.Get(small, shared_key, small.StructuralSignature()),
            &cache.Get(large, shared_key, large.StructuralSignature()));
}

// A feature source whose Lookup throws for the first `failures` calls, then
// behaves as a permanent miss (std::nullopt -> in-process featurization).
class FlakyFeatureSource : public feat::KernelFeatureSource {
 public:
  explicit FlakyFeatureSource(int failures) : remaining_(failures) {}
  std::optional<feat::KernelFeatures> Lookup(std::uint64_t,
                                             std::uint64_t) const override {
    if (remaining_.fetch_sub(1) > 0) {
      throw std::runtime_error("flaky feature source");
    }
    return std::nullopt;
  }
  int lookups() const { return -remaining_.load(); }

 private:
  mutable std::atomic<int> remaining_;
};

// Regression: a claimant whose featurization throws must release its
// in-flight claim during unwind. Before the ClaimGuard in PreparedCache::Get
// this deadlocked — every other thread waiting on the same kernel slept on
// in_flight_done_ forever while the claim leaked. Now waiters wake, re-claim,
// and retry until the source recovers; the test completing at all is the
// deadlock check.
TEST(PreparedCacheThreaded, ThrowingFeatureSourceReleasesClaim) {
  LearnedCostModel model(SmallConfig());
  const ir::Graph kernel = RandomKernel(91, 9);
  model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();
  const ir::Graph::Hashes hashes = kernel.FingerprintAndSignature();

  FlakyFeatureSource source(/*failures=*/16);
  PreparedCache cache(model, &source);

  constexpr int kThreads = 8;
  std::atomic<int> throws{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      // Hammer until this thread sees one success; every failure must leave
      // the cache claimable again rather than wedging the remaining threads.
      for (;;) {
        try {
          const PreparedKernel& pk =
              cache.Get(kernel, hashes.fingerprint, hashes.signature);
          ASSERT_EQ(pk.num_nodes, kernel.num_nodes());
          successes.fetch_add(1);
          return;
        } catch (const std::runtime_error&) {
          throws.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(successes.load(), kThreads);
  EXPECT_GT(throws.load(), 0);  // the flaky window really was exercised
  EXPECT_EQ(cache.size(), 1u);  // one entry once the source recovered
  // The entry is cached: further Gets hit without consulting the source.
  const int lookups_before = source.lookups();
  cache.Get(kernel, hashes.fingerprint, hashes.signature);
  EXPECT_EQ(source.lookups(), lookups_before);
}

// ---- Strict TPUPERF_* env parsing ------------------------------------------

// std::stoi regressions: "4x" parsed as 4, "" threw, huge values threw.
// ParseIntStrict/EnvInt must instead reject malformed values outright and
// fall back with a warning (thread_pool + serve read their knobs this way).
TEST(EnvParsing, ParseIntStrictRejectsMalformed) {
  EXPECT_EQ(ParseIntStrict("4"), 4);
  EXPECT_EQ(ParseIntStrict("-2"), -2);
  EXPECT_EQ(ParseIntStrict("999999999999"), 999999999999ll);
  EXPECT_EQ(ParseIntStrict("4x"), std::nullopt);
  EXPECT_EQ(ParseIntStrict(""), std::nullopt);
  EXPECT_EQ(ParseIntStrict(" 4"), std::nullopt);
  EXPECT_EQ(ParseIntStrict("4 "), std::nullopt);
  EXPECT_EQ(ParseIntStrict("-"), std::nullopt);
  EXPECT_EQ(ParseIntStrict("0x10"), std::nullopt);
  EXPECT_EQ(ParseIntStrict("99999999999999999999"), std::nullopt);  // overflow
}

TEST(EnvParsing, EnvIntFallsBackOnMalformedAndClamps) {
  const char* kVar = "TPUPERF_TEST_ENV_INT";
  struct Cleanup {
    const char* var;
    ~Cleanup() { ::unsetenv(var); }
  } cleanup{kVar};

  ::unsetenv(kVar);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);  // unset -> fallback, silently

  ::setenv(kVar, "4x", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);  // trailing garbage -> fallback
  ::setenv(kVar, "", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);  // empty -> fallback
  ::setenv(kVar, "-2", 1);
  EXPECT_EQ(EnvInt(kVar, 7, -10, 100), -2);  // valid negative passes through
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 0);     // ...and clamps to min_value
  ::setenv(kVar, "999999999999", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 100);  // in-range of int64 -> clamp max
  ::setenv(kVar, "99999999999999999999", 1);
  EXPECT_EQ(EnvInt(kVar, 7, 0, 100), 7);  // int64 overflow -> fallback
}

// ---- Parallel-vs-serial model parity ---------------------------------------

// PredictBatch must produce EXACTLY the single-thread scores for every GNN
// kind and every reduction (the parallel paths only re-partition work).
TEST(ParallelParity, PredictBatchExactAcrossGrid) {
  PoolGuard guard;
  for (const GnnKind gnn :
       {GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat}) {
    for (const ReductionKind reduction :
         {ReductionKind::kPerNode, ReductionKind::kColumnWise,
          ReductionKind::kLstm, ReductionKind::kTransformer}) {
      ModelConfig config = SmallConfig();
      config.gnn = gnn;
      config.reduction = reduction;
      LearnedCostModel model(config);

      std::vector<ir::Graph> kernels;
      for (int k = 0; k < 6; ++k) {
        kernels.push_back(
            RandomKernel(1000 + static_cast<std::uint64_t>(k) * 17, 5 + 7 * k));
      }
      for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
      const std::vector<ir::TileConfig> tiles = {
          {{16, 64}}, {{1, 8}}, {{8, 8}}, {{4, 32}}, {{2, 16}}, {{32, 4}}};
      for (const auto& tile : tiles) model.FitTileScaler(tile);
      model.FinishFitting();

      std::vector<PreparedKernel> prepared;
      for (const auto& kernel : kernels) {
        prepared.push_back(model.Prepare(kernel));
      }
      std::vector<BatchItem> items;
      for (size_t i = 0; i < prepared.size(); ++i) {
        items.push_back({&prepared[i], &tiles[i]});
      }

      ThreadPool::SetNumThreads(1);
      const PreparedBatch batch_serial = model.PrepareBatch(items);
      const std::vector<double> serial = model.PredictBatch(batch_serial);
      ThreadPool::SetNumThreads(4);
      const PreparedBatch batch_parallel = model.PrepareBatch(items);
      const std::vector<double> parallel = model.PredictBatch(batch_parallel);

      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i], serial[i])
            << "kernel " << i << " (" << ToString(gnn) << " + "
            << ToString(reduction) << ")";
      }
    }
  }
}

// Training must be unaffected by pool width: RNG draws stay serial and the
// parallel kernels are bit-exact, so the loss trajectory matches exactly.
TEST(ParallelParity, TileTrainerLossExact) {
  PoolGuard guard;
  const std::vector<ir::Program> corpus = {data::BuildProgram("RNNLM", 0)};
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 6;
  options.fusion_configs_per_program = 2;
  const data::TileDataset dataset =
      data::BuildTileDataset(corpus, simulator, options);
  const std::vector<int> programs = {0};

  ModelConfig config = SmallConfig();
  config.train_steps = 25;

  ThreadPool::SetNumThreads(1);
  LearnedCostModel serial_model(config);
  PreparedCache serial_cache(serial_model);
  const TrainStats serial =
      TrainTileTask(serial_model, dataset, programs, serial_cache);

  ThreadPool::SetNumThreads(4);
  LearnedCostModel parallel_model(config);
  PreparedCache parallel_cache(parallel_model);
  const TrainStats parallel =
      TrainTileTask(parallel_model, dataset, programs, parallel_cache);

  EXPECT_EQ(serial.first_loss, parallel.first_loss);
  EXPECT_EQ(serial.final_loss, parallel.final_loss);

  // And the trained models agree exactly on a probe prediction.
  const auto& probe = dataset.kernels.front();
  const data::KernelRecord& record = probe.record;
  const PreparedKernel& pk_serial = serial_cache.Get(
      record.kernel.graph, record.fingerprint, record.signature);
  const PreparedKernel& pk_parallel = parallel_cache.Get(
      record.kernel.graph, record.fingerprint, record.signature);
  EXPECT_EQ(serial_model.PredictScore(pk_serial, &probe.configs.front()),
            parallel_model.PredictScore(pk_parallel, &probe.configs.front()));
}

// The fusion trainer assembles its minibatches concurrently; the loss must
// still match the 1-thread run exactly.
TEST(ParallelParity, FusionTrainerLossExact) {
  PoolGuard guard;
  const std::vector<ir::Program> corpus = {data::BuildProgram("RNNLM", 0)};
  const sim::TpuSimulator simulator(sim::TpuTarget::V2());
  const analytical::AnalyticalModel analytical(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 4;
  options.fusion_configs_per_program = 2;
  const data::FusionDataset dataset =
      data::BuildFusionDataset(corpus, simulator, analytical, options);
  const std::vector<int> programs = {0};

  ModelConfig config = ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.gnn_layers = 2;
  config.train_steps = 25;

  ThreadPool::SetNumThreads(1);
  LearnedCostModel serial_model(config);
  PreparedCache serial_cache(serial_model);
  const TrainStats serial =
      TrainFusionTask(serial_model, dataset, programs, serial_cache);

  ThreadPool::SetNumThreads(4);
  LearnedCostModel parallel_model(config);
  PreparedCache parallel_cache(parallel_model);
  const TrainStats parallel =
      TrainFusionTask(parallel_model, dataset, programs, parallel_cache);

  EXPECT_EQ(serial.first_loss, parallel.first_loss);
  EXPECT_EQ(serial.final_loss, parallel.final_loss);
}

// The learned evaluator splits candidate pools into sub-batches scored in
// parallel; estimates must match the serial run exactly. The parallel run
// goes first, so pool workers compile plans into the model's empty plan
// cache and replay them concurrently (TSan checks the cache in CI).
TEST(ParallelParity, EstimateBatchExact) {
  PoolGuard guard;
  ModelConfig config = SmallConfig();
  LearnedCostModel model(config);
  std::vector<ir::Graph> kernels = {RandomKernel(31, 12), RandomKernel(32, 20),
                                    RandomKernel(33, 7)};
  for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
  std::vector<ir::TileConfig> tiles;
  for (int i = 1; i <= 50; ++i) {
    tiles.push_back(ir::TileConfig{{i, 128 - 2 * i}});
    model.FitTileScaler(tiles.back());
  }
  model.FinishFitting();

  // 150 queries -> 3 sub-batches of LearnedEvaluator::kMaxBatch=64.
  std::vector<tune::KernelTileRef> refs;
  for (const auto& kernel : kernels) {
    for (const auto& tile : tiles) refs.push_back({&kernel, &tile});
  }

  ThreadPool::SetNumThreads(4);
  PreparedCache parallel_cache(model);
  tune::LearnedEvaluator parallel_eval(model, parallel_cache);
  const auto parallel = parallel_eval.EstimateBatch(refs);
  EXPECT_GT(model.plan_cache().counters().compiles, 0u);

  ThreadPool::SetNumThreads(1);
  PreparedCache serial_cache(model);
  tune::LearnedEvaluator serial_eval(model, serial_cache);
  const auto serial = serial_eval.EstimateBatch(refs);

  ASSERT_EQ(serial.size(), refs.size());
  ASSERT_EQ(parallel.size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    ASSERT_TRUE(serial[i].has_value());
    ASSERT_TRUE(parallel[i].has_value());
    EXPECT_EQ(*serial[i], *parallel[i]) << "query " << i;
  }
  EXPECT_EQ(serial_eval.SpentSeconds(), parallel_eval.SpentSeconds());
}

}  // namespace
}  // namespace tpuperf::core
