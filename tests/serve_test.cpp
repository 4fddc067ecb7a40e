// Tests for the serving engine: micro-batcher flush triggers (size /
// deadline / shutdown), exact parity between served results and direct
// PredictScore calls, concurrent-client stress at pool widths 1 and 4 (run
// under TSan in CI), bit-exact model-snapshot round trips, crafted and
// damaged snapshots that must throw StoreError (run under ASan+UBSan in CI),
// and graceful shutdown draining.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "core/thread_pool.h"
#include "dataset/store.h"
#include "dataset/wire.h"
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

  std::unique_ptr<core::LearnedCostModel> MakeModel(
      const core::ModelConfig& config = SmallConfig()) const {
    auto model = std::make_unique<core::LearnedCostModel>(config);
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

// A fitted model whose every parameter differs from a fresh build's, so a
// load that kept the constructor's initialization fails parity.
std::unique_ptr<core::LearnedCostModel> MakePerturbedModel(
    const Fixture& fx, const core::ModelConfig& config) {
  auto model = fx.MakeModel(config);
  float bump = 0.01f;
  for (nn::Parameter* p : model->params().params()) {
    for (float& v : p->value.flat()) v = v * 1.25f + bump;
    bump += 0.01f;
  }
  return model;
}

class SnapshotRoundTripTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { core::ThreadPool::SetNumThreads(GetParam()); }
  void TearDown() override {
    core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  }
};

// Save → load → identical scalers, parameters and predictions, both via the
// loaded model directly and via a service constructed from the snapshot
// path, for a GraphSAGE and an LSTM-reduction (folded-constant) model.
TEST_P(SnapshotRoundTripTest, BitExact) {
  Fixture fx;
  core::ModelConfig lstm = SmallConfig();
  lstm.reduction = core::ReductionKind::kLstm;
  for (const core::ModelConfig& config : {SmallConfig(), lstm}) {
    auto model = MakePerturbedModel(fx, config);
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
    EXPECT_EQ(loaded->config().reduction, model->config().reduction);

    const std::pair<const feat::FeatureScaler*, const feat::FeatureScaler*>
        scalers[] = {{&model->node_scaler(), &loaded->node_scaler()},
                     {&model->tile_scaler(), &loaded->tile_scaler()},
                     {&model->perf_scaler(), &loaded->perf_scaler()}};
    for (const auto& [saved, restored] : scalers) {
      EXPECT_EQ(restored->observed(), saved->observed());
      ASSERT_EQ(restored->num_features(), saved->num_features());
      for (int f = 0; f < saved->num_features(); ++f) {
        const auto u = static_cast<std::size_t>(f);
        EXPECT_EQ(restored->mins()[u], saved->mins()[u]);
        EXPECT_EQ(restored->maxs()[u], saved->maxs()[u]);
        for (const double v : {0.37, 2.0, 20.0}) {
          EXPECT_EQ(restored->Transform(f, v), saved->Transform(f, v));
        }
      }
    }

    const auto saved_params = model->param_store().params();
    const auto loaded_params = loaded->param_store().params();
    ASSERT_EQ(loaded_params.size(), saved_params.size());
    for (size_t p = 0; p < saved_params.size(); ++p) {
      EXPECT_EQ(loaded_params[p]->name, saved_params[p]->name);
      ASSERT_TRUE(loaded_params[p]->value.same_shape(saved_params[p]->value));
      EXPECT_TRUE(std::equal(saved_params[p]->value.flat().begin(),
                             saved_params[p]->value.flat().end(),
                             loaded_params[p]->value.flat().begin()))
          << saved_params[p]->name;
    }

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
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, SnapshotRoundTripTest,
                         ::testing::Values(1, 4));

// A scaler that never observed a row round-trips unfitted, at its width.
TEST(ServeSnapshot, UnobservedScalerRoundTrips) {
  Fixture fx(2);
  core::ModelConfig config = SmallConfig();
  config.use_tile_features = false;
  core::LearnedCostModel model(config);
  for (const auto& kernel : fx.kernels) model.FitNodeScaler(kernel);
  model.FinishFitting();
  const std::string path = TempSnapshotPath("unobserved");
  SaveModelSnapshot(path, model);
  auto loaded = LoadModelSnapshot(path);
  EXPECT_FALSE(loaded->tile_scaler().fitted());
  EXPECT_EQ(loaded->tile_scaler().num_features(), feat::kTileFeatures);
  EXPECT_TRUE(loaded->node_scaler().fitted());
  std::filesystem::remove(path);
}

// An unfitted model cannot be saved, as it cannot be served, and no file
// is left behind.
TEST(ServeSnapshot, SaveRejectsUnfittedModel) {
  const std::string path = TempSnapshotPath("unfitted");
  std::filesystem::remove(path);
  core::LearnedCostModel model(SmallConfig());
  EXPECT_THROW(SaveModelSnapshot(path, model), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
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

TEST(ServeSnapshot, MissingFileThrows) {
  EXPECT_THROW(LoadModelSnapshot("/nonexistent/path/model.snapshot"),
               data::StoreError);
}

// ---- Crafted and damaged snapshots -------------------------------------------

// A snapshot's records as (type, payload) pairs, in file order.
using Records = std::vector<std::pair<std::uint32_t, std::string>>;

Records ReadRecords(const std::string& path) {
  Records records;
  data::DatasetReader(path).ForEachRecord([&](const data::RecordView& r) {
    records.emplace_back(
        r.type, std::string(reinterpret_cast<const char*>(r.payload.data()),
                            r.payload.size()));
  });
  return records;
}

// Writes `records` with valid framing and checksums: only the content is
// crafted.
void WriteRecords(const std::string& path, const Records& records) {
  data::DatasetWriter writer(path);
  for (const auto& [type, payload] : records) writer.AddRaw(type, payload);
  writer.Finish();
}

// Loading the file at `path` throws data::StoreError and nothing else.
// Returns the message ("" after a failure).
std::string ExpectStoreError(const std::string& path, const std::string& why) {
  try {
    (void)LoadModelSnapshot(path);
    ADD_FAILURE() << why << ": the snapshot loaded";
  } catch (const data::StoreError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << why << ": threw a non-StoreError: " << e.what();
  }
  return "";
}

// Loading `records` throws a StoreError whose message contains `expect`.
void ExpectRejected(const Records& records, const std::string& expect) {
  const std::string path = TempSnapshotPath("crafted");
  WriteRecords(path, records);
  const std::string message = ExpectStoreError(path, expect);
  EXPECT_NE(message.find(expect), std::string::npos) << message;
  std::filesystem::remove(path);
}

// The records of a valid snapshot of `model`: config, the node, tile and
// perf scalers, then the parameters.
Records SnapshotRecords(const core::LearnedCostModel& model) {
  const std::string path = TempSnapshotPath("valid");
  SaveModelSnapshot(path, model);
  Records records = ReadRecords(path);
  std::filesystem::remove(path);
  return records;
}

constexpr std::size_t kConfig = 0, kNode = 1, kTile = 2, kPerf = 3,
                      kParams = 4;

std::string U32Bytes(std::uint32_t v) {
  data::Enc e;
  e.U32(v);
  return e.bytes();
}

// A params payload encoding `model`'s parameters, with `edit` applied to
// each (index, name, rows, cols) before it is written; values follow the
// written shape.
template <typename Edit>
std::string CraftParams(const core::LearnedCostModel& model, Edit edit) {
  const auto params = model.param_store().params();
  data::Enc e;
  e.U32(static_cast<std::uint32_t>(params.size()));
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::string name = params[i]->name;
    int rows = params[i]->value.rows();
    int cols = params[i]->value.cols();
    edit(i, name, rows, cols);
    e.Str(name);
    e.I32(rows);
    e.I32(cols);
    for (int v = 0; v < rows * cols; ++v) e.F32(0.5f);
  }
  return e.bytes();
}

std::string CraftScaler(const std::string& name, int width) {
  data::Enc e;
  e.Str(name);
  e.U32(static_cast<std::uint32_t>(width));
  e.I64(1);
  for (int i = 0; i < 2 * width; ++i) e.F64(i % 2);
  return e.bytes();
}

TEST(ServeSnapshotCrafted, ParameterRecordChecks) {
  Fixture fx(2);
  auto model = fx.MakeModel();
  const Records good = SnapshotRecords(*model);
  ASSERT_EQ(good.size(), 5u);
  ASSERT_EQ(good[kParams].first, data::kModelParamsRecordType);
  const std::string& params = good[kParams].second;

  Records r = good;
  r[kParams].second = U32Bytes(0xffffffffu) + params.substr(4);
  ExpectRejected(r, "parameter count 4294967295");

  r = good;
  r[kParams].second = U32Bytes(0) + params.substr(4);
  ExpectRejected(r, "parameter count 0");

  // A name length of 2^32 - 1 where the first name's length belongs.
  r = good;
  r[kParams].second = params.substr(0, 4) + U32Bytes(0xffffffffu) +
                      params.substr(8);
  ExpectRejected(r, "payload overrun");

  r = good;
  r[kParams].second = CraftParams(
      *model, [](std::size_t i, std::string& name, int&, int&) {
        if (i == 1) name = "different";
      });
  ExpectRejected(r, "parameter \"different\"");

  r = good;
  r[kParams].second = CraftParams(
      *model, [](std::size_t i, std::string&, int& rows, int&) {
        if (i == 2) ++rows;
      });
  ExpectRejected(r, "where the model's is");

  // The right shape, with its values cut short.
  r = good;
  r[kParams].second = params.substr(0, params.size() - 4);
  ExpectRejected(r, "parameter value count");

  // Unedited, the crafting helper writes a record that loads: the cases
  // above fail for their edit alone.
  r = good;
  r[kParams].second =
      CraftParams(*model, [](std::size_t, std::string&, int&, int&) {});
  const std::string path = TempSnapshotPath("crafted_ok");
  WriteRecords(path, r);
  const auto crafted = LoadModelSnapshot(path);
  for (const nn::Parameter* p : crafted->param_store().params()) {
    for (const float v : p->value.flat()) ASSERT_EQ(v, 0.5f);
  }
  std::filesystem::remove(path);
}

TEST(ServeSnapshotCrafted, ScalerRecordChecks) {
  Fixture fx(2);
  const Records good = SnapshotRecords(*fx.MakeModel());
  ASSERT_EQ(good.size(), 5u);

  Records r = good;
  r[kNode].second = CraftScaler("node", 5);
  ExpectRejected(r, "scaler \"node\" width 5");

  r = good;
  r[kPerf].second = CraftScaler("perf", feat::kTileFeatures);
  ExpectRejected(r, "scaler \"perf\" width");

  r = good;
  r[kTile].second = CraftScaler("edge", feat::kTileFeatures);
  ExpectRejected(r, "unknown scaler \"edge\"");

  r = good;
  r.erase(r.begin() + kTile);
  ExpectRejected(r, "no \"tile\" scaler record");

  r = good;
  r.insert(r.begin() + kPerf, good[kNode]);
  ExpectRejected(r, "duplicate scaler \"node\"");

  r = good;
  r[kNode].second += '\0';
  ExpectRejected(r, "trailing bytes");
}

TEST(ServeSnapshotCrafted, RecordOrderAndSet) {
  Fixture fx(2);
  const Records good = SnapshotRecords(*fx.MakeModel());
  ASSERT_EQ(good.size(), 5u);

  Records r = {good[kParams], good[kConfig], good[kNode], good[kTile],
               good[kPerf]};
  ExpectRejected(r, "the config record must come first");

  r = {good[kNode], good[kConfig], good[kTile], good[kPerf], good[kParams]};
  ExpectRejected(r, "the config record must come first");

  r = good;
  r.push_back(good[kConfig]);
  ExpectRejected(r, "duplicate config record");

  r = good;
  r.push_back(good[kParams]);
  ExpectRejected(r, "duplicate parameter record");

  r = good;
  r.pop_back();
  ExpectRejected(r, "no parameter record");

  r = good;
  r[kConfig].second += '\0';
  ExpectRejected(r, "trailing bytes");

  r = good;
  r.emplace_back(data::kFeaturizedRecordType, std::string());
  ExpectRejected(r, "does not belong in a model snapshot");

  ExpectRejected({}, "no config record");
}

// The model file format before snapshots encoded their own records: a
// params record holding "TPUPERF1", the three scalers and the parameters
// as raw host bytes (little-endian here), u64 counts and lengths.
TEST(ServeSnapshotCrafted, OldLayoutThrows) {
  Fixture fx(2);
  auto model = fx.MakeModel();
  const Records good = SnapshotRecords(*model);
  ASSERT_EQ(good.size(), 5u);
  data::Enc old;
  for (const char c : std::string("TPUPERF1")) {
    old.U8(static_cast<std::uint8_t>(c));
  }
  for (const feat::FeatureScaler* s :
       {&model->node_scaler(), &model->tile_scaler(), &model->perf_scaler()}) {
    old.U64(static_cast<std::uint64_t>(s->num_features()));
    old.I64(s->observed());
    for (const double v : s->mins()) old.F64(v);
    for (const double v : s->maxs()) old.F64(v);
  }
  const auto params = model->param_store().params();
  old.U64(params.size());
  for (const nn::Parameter* p : params) {
    old.U64(p->name.size());
    for (const char c : p->name) old.U8(static_cast<std::uint8_t>(c));
    old.I32(p->value.rows());
    old.I32(p->value.cols());
    for (const float v : p->value.flat()) old.F32(v);
  }
  ExpectRejected({good[kConfig], {data::kModelParamsRecordType, old.bytes()}},
                 "parameter count");

  // Not a store file at all.
  const std::string path = TempSnapshotPath("garbage");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model file at all....";
  }
  ExpectStoreError(path, "garbage file");
  std::filesystem::remove(path);
}

// Seeded damage sweep: the file truncated at every record boundary, the
// snapshot rewritten with each prefix of its records, and seeded single-bit
// flips anywhere in the file. Every case throws StoreError.
TEST(ServeSnapshotCrafted, DamageSweepThrows) {
  Fixture fx(2);
  const std::string path = TempSnapshotPath("damage");
  SaveModelSnapshot(path, *fx.MakeModel());
  const Records good = ReadRecords(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto write_bytes = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  };

  std::size_t boundary = data::kStoreHeaderSize;
  for (std::size_t k = 0; k < good.size(); ++k) {
    write_bytes(bytes.substr(0, boundary));
    ExpectStoreError(path, "truncated to " + std::to_string(k) + " records");
    boundary += data::kStoreRecordHeaderSize + good[k].second.size();
  }
  ASSERT_EQ(boundary, bytes.size());
  for (std::size_t k = 0; k < good.size(); ++k) {
    WriteRecords(path, Records(good.begin(),
                               good.begin() + static_cast<std::ptrdiff_t>(k)));
    ExpectStoreError(path, "first " + std::to_string(k) + " records");
  }

  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<std::size_t> pick_byte(0, bytes.size() - 1);
  for (int flip = 0; flip < 200; ++flip) {
    std::string damaged = bytes;
    const std::size_t at = pick_byte(rng);
    damaged[at] = static_cast<char>(damaged[at] ^ (1 << (rng() % 8)));
    write_bytes(damaged);
    ExpectStoreError(path, "bit flip at byte " + std::to_string(at));
  }
  std::filesystem::remove(path);
}

// ---- Construction ----------------------------------------------------------

// An unfitted model cannot be served.
TEST(ServeConfig, RejectsUnfittedModel) {
  auto model = std::make_unique<core::LearnedCostModel>(SmallConfig());
  EXPECT_THROW(PredictionService{std::move(model)}, std::invalid_argument);
}

}  // namespace
}  // namespace tpuperf::serve
