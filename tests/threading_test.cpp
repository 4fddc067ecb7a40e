// Tests for the thread pool behind serve::PredictionService (Submit, inline
// width-1 execution, typed errors after Shutdown), PreparedCache reuse,
// collisions and claim release under concurrent Gets, and the strict
// integer parser behind TPUPERF_FAULTS.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "core/env.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "ir/builder.h"

namespace tpuperf::core {
namespace {

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, SubmitReturnsTaskFuture) {
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    auto f1 = pool.Submit([] { return 41 + 1; });
    auto f2 = pool.Submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
  }
}

// A width-1 pool has no workers: Submit runs the task on the caller (the
// service's batcher thread at num_threads = 1).
TEST(ThreadPool, SerialPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.Submit([] { return std::this_thread::get_id(); }).get(),
            std::this_thread::get_id());
  EXPECT_EQ(pool.size(), 1);
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

// ---- Strict TPUPERF_* value parsing ----------------------------------------

// std::stoi regressions: "4x" parsed as 4, "" threw, huge values threw.
// ParseIntStrict must instead reject malformed values outright
// (TPUPERF_FAULTS reads its counts this way).
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

}  // namespace
}  // namespace tpuperf::core
