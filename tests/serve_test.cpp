// Tests for the serving engine: micro-batcher flush triggers (size /
// deadline / shutdown), exact parity between served results and direct
// PredictScore calls, concurrent-client stress at pool widths 1 and 4 (run
// under TSan in CI), model-snapshot round-trips, and graceful shutdown
// draining.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <filesystem>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "dataset/store.h"
#include "ir/builder.h"
#include "serve/prediction_service.h"
#include "serve/snapshot.h"

namespace tpuperf::serve {
namespace {

// A random elementwise kernel with at least `target_nodes` nodes (the same
// generator shape batch_test uses, so served batches mix segment lengths).
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

  explicit Fixture(int num_kernels = 6) {
    for (int k = 0; k < num_kernels; ++k) {
      kernels.push_back(RandomKernel(
          1000 + static_cast<std::uint64_t>(k) * 17, 5 + 5 * k));
      tiles.push_back(ir::TileConfig{
          {static_cast<std::int64_t>(1 << (k % 5)), 8}});
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

// ---- Parity ----------------------------------------------------------------

// A served prediction must be EXACTLY PredictScore's output for the same
// (kernel, tile): batching is a throughput optimization, not an accuracy
// trade.
TEST(ServeParity, ExactMatchVsPredictScore) {
  Fixture fx;
  auto reference = fx.MakeModel();

  ServiceConfig config;
  config.max_batch = 4;      // force multi-request packed batches
  config.deadline_us = 500;  // and deadline flushes for the stragglers
  config.num_threads = 2;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  std::vector<size_t> which;
  for (int round = 0; round < 5; ++round) {
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
      which.push_back(i);
    }
  }
  for (size_t r = 0; r < futures.size(); ++r) {
    const size_t i = which[r];
    const core::PreparedKernel prepared =
        reference->Prepare(fx.kernels[i]);
    const double direct = reference->PredictScore(prepared, &fx.tiles[i]);
    const PredictResult served = futures[r].get();
    EXPECT_TRUE(std::isfinite(served.value));
    EXPECT_FALSE(served.degraded);
    EXPECT_EQ(served.value, direct)
        << "request " << r << " (kernel " << i << ")";
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, futures.size());
  EXPECT_EQ(stats.completed, futures.size());
  EXPECT_EQ(stats.failed, 0u);
}

// Predictions without a tile config (fusion-style queries) round-trip too.
TEST(ServeParity, NullTileMatches) {
  Fixture fx(3);
  auto reference = fx.MakeModel();
  core::ModelConfig no_tile = SmallConfig();
  no_tile.use_tile_features = false;

  auto make = [&] {
    auto m = std::make_unique<core::LearnedCostModel>(no_tile);
    for (const auto& kernel : fx.kernels) m->FitNodeScaler(kernel);
    m->FinishFitting();
    return m;
  };
  auto ref = make();
  PredictionService service(make());
  for (const auto& kernel : fx.kernels) {
    const double direct = ref->PredictScore(ref->Prepare(kernel), nullptr);
    EXPECT_EQ(service.Predict(kernel), direct);
  }
}

// ---- Flush triggers --------------------------------------------------------

// With an effectively infinite deadline, flushes happen exactly when the
// window fills: 8 requests at max_batch=4 make exactly two size flushes.
TEST(ServeFlush, SizeTriggerFlushesFullWindows) {
  Fixture fx;
  ServiceConfig config;
  config.max_batch = 4;
  config.deadline_us = 10000000;  // 10 s: the deadline never fires here
  config.num_threads = 1;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  for (int r = 0; r < 8; ++r) {
    const size_t i = static_cast<size_t>(r) % fx.kernels.size();
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get().value));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.size_flushes, 2u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.batched_items, 8u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 4.0);
}

// With a huge max_batch, a short deadline is what unblocks the requests:
// the futures resolve without ever filling the window.
TEST(ServeFlush, DeadlineTriggerFlushesPartialWindow) {
  Fixture fx(3);
  ServiceConfig config;
  config.max_batch = 64;
  config.deadline_us = 2000;  // 2 ms
  config.num_threads = 1;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get().value));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_GE(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.batched_items, 3u);
}

// ---- Shutdown --------------------------------------------------------------

// Shutdown must flush everything still queued — every issued future
// resolves — and further submissions must fail loudly.
TEST(ServeShutdown, DrainsQueuedRequests) {
  Fixture fx(5);
  ServiceConfig config;
  config.max_batch = 64;
  config.deadline_us = 10000000;  // only shutdown can flush these
  config.num_threads = 1;
  PredictionService service(fx.MakeModel(), config);

  std::vector<std::future<PredictResult>> futures;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  service.Shutdown();
  for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get().value));

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_GE(stats.shutdown_flushes, 1u);
  EXPECT_THROW(service.PredictAsync(fx.kernels[0], &fx.tiles[0]),
               std::runtime_error);
  service.Shutdown();  // idempotent
}

// The destructor alone must also drain (futures from a destroyed service
// still resolve).
TEST(ServeShutdown, DestructorDrains) {
  Fixture fx(4);
  std::vector<std::future<PredictResult>> futures;
  {
    ServiceConfig config;
    config.max_batch = 64;
    config.deadline_us = 10000000;
    PredictionService service(fx.MakeModel(), config);
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(std::isfinite(f.get().value));
}

// ---- Concurrency -----------------------------------------------------------

class ServeStressTest : public ::testing::TestWithParam<int> {};

// Many client threads hammering one service; duplicate kernels share the
// prepared cache across batches. Run under TSan in CI at both widths.
TEST_P(ServeStressTest, ConcurrentClients) {
  Fixture fx;
  auto reference = fx.MakeModel();
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = reference->PredictScore(reference->Prepare(fx.kernels[i]),
                                        &fx.tiles[i]);
  }

  ServiceConfig config;
  config.max_batch = 8;
  config.deadline_us = 200;
  config.num_threads = GetParam();
  PredictionService service(fx.MakeModel(), config);

  constexpr int kClients = 8;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(c) * 977 + 5);
      std::uniform_int_distribution<size_t> pick(0, fx.kernels.size() - 1);
      for (int r = 0; r < kPerClient; ++r) {
        const size_t i = pick(rng);
        const double served =
            service.Predict(fx.kernels[i], &fx.tiles[i]);
        if (served != direct[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Counters are only guaranteed exact once the service is idle: a worker
  // resolves futures before bumping `completed`, so drain before reading.
  service.Shutdown();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.completed, stats.requests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.batched_items, stats.requests);
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, ServeStressTest, ::testing::Values(1, 4));

// ---- Snapshots -------------------------------------------------------------

std::string TempSnapshotPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tpuperf_serve_test_") + name + ".tpms"))
      .string();
}

// Save → load → identical predictions, both via the loaded model directly
// and via a service constructed from the snapshot path.
TEST(ServeSnapshot, RoundTripParity) {
  Fixture fx;
  auto model = fx.MakeModel();
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = model->PredictScore(model->Prepare(fx.kernels[i]),
                                    &fx.tiles[i]);
  }

  const std::string path = TempSnapshotPath("roundtrip");
  SaveModelSnapshot(path, *model);

  auto loaded = LoadModelSnapshot(path);
  ASSERT_TRUE(loaded->fitted());
  EXPECT_EQ(loaded->config().hidden_dim, model->config().hidden_dim);
  EXPECT_EQ(loaded->config().gnn, model->config().gnn);
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    EXPECT_EQ(loaded->PredictScore(loaded->Prepare(fx.kernels[i]),
                                   &fx.tiles[i]),
              direct[i]);
  }

  PredictionService service(path);
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    EXPECT_EQ(service.Predict(fx.kernels[i], &fx.tiles[i]), direct[i]);
  }
  std::filesystem::remove(path);
}

// A snapshot is not a dataset: DatasetReader::ReadAll must refuse it with a
// pointer at the right API instead of a generic unknown-type error.
TEST(ServeSnapshot, DatasetReaderRejectsSnapshots) {
  Fixture fx(2);
  const std::string path = TempSnapshotPath("not_a_dataset");
  SaveModelSnapshot(path, *fx.MakeModel());
  data::DatasetReader reader(path);
  try {
    (void)reader.ReadAll();
    FAIL() << "ReadAll accepted a model snapshot";
  } catch (const data::StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("LoadModelSnapshot"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// Corruption anywhere in the snapshot fails loudly.
TEST(ServeSnapshot, CorruptSnapshotThrows) {
  Fixture fx(2);
  const std::string path = TempSnapshotPath("corrupt");
  SaveModelSnapshot(path, *fx.MakeModel());

  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f);
  f.seekp(60);  // inside the config record's payload
  char byte = 0;
  f.seekg(60);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(60);
  f.write(&byte, 1);
  f.close();

  EXPECT_THROW(LoadModelSnapshot(path), data::StoreError);
  std::filesystem::remove(path);
}

// A missing-params snapshot (truncated writer output) is rejected.
TEST(ServeSnapshot, MissingRecordsThrow) {
  const std::string path = TempSnapshotPath("empty");
  {
    data::DatasetWriter writer(path);
    writer.Finish();  // valid framing, zero records
  }
  EXPECT_THROW(LoadModelSnapshot(path), data::StoreError);
  std::filesystem::remove(path);
}

TEST(ServeSnapshot, MissingFileThrows) {
  EXPECT_THROW(LoadModelSnapshot("/nonexistent/path/model.snapshot"),
               data::StoreError);
}

// ---- Construction ----------------------------------------------------------

// An unfitted model cannot be served.
TEST(ServeConfig, RejectsUnfittedModel) {
  auto model = std::make_unique<core::LearnedCostModel>(SmallConfig());
  EXPECT_THROW(PredictionService{std::move(model)}, std::invalid_argument);
}

}  // namespace
}  // namespace tpuperf::serve
