// Tests for the learned cost model: construction across the full
// architecture grid (parameterized), forward determinism, feature-placement
// options, the plan cache's drop on every write, and short-training
// behaviour. Save/load fidelity is serve_test's (model snapshots).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/trainer.h"
#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/builder.h"
#include "nn/losses.h"
#include "nn/optimizer.h"
#include "sim/simulator.h"

namespace tpuperf::core {
namespace {

ir::Graph SmallKernel() {
  ir::GraphBuilder b;
  const ir::NodeId x = b.Parameter(ir::Shape({16, 32}));
  const ir::NodeId w = b.Parameter(ir::Shape({32, 64}));
  const ir::NodeId d = b.Dot(x, w);
  b.Unary(ir::OpCode::kTanh, d);
  return std::move(b).Build();
}

ModelConfig SmallConfig() {
  ModelConfig c = ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  c.train_steps = 50;
  return c;
}

void FitOn(LearnedCostModel& model, const ir::Graph& kernel) {
  model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{16, 64}});
  model.FitTileScaler(ir::TileConfig{{1, 8}});
  model.FinishFitting();
}

// The full Table-4 grid must construct and produce finite predictions.
class ModelGridTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, ReductionKind>> {};

TEST_P(ModelGridTest, ForwardIsFiniteAndDeterministic) {
  const auto [gnn, reduction] = GetParam();
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  const ir::TileConfig tile{{8, 64}};
  const double a = model.PredictScore(pk, &tile);
  const double b = model.PredictScore(pk, &tile);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_DOUBLE_EQ(a, b);
  // Different tiles must be able to produce different scores.
  const ir::TileConfig other{{1, 8}};
  EXPECT_NE(model.PredictScore(pk, &other), a);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGridTest,
    ::testing::Combine(
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

TEST(CostModel, RequiresFittedScalers) {
  LearnedCostModel model(SmallConfig());
  EXPECT_THROW(model.Prepare(SmallKernel()), std::logic_error);
}

TEST(CostModel, RequiresTileWhenConfigured) {
  LearnedCostModel model(SmallConfig());
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  EXPECT_THROW(model.PredictScore(pk, nullptr), std::invalid_argument);
}

TEST(CostModel, FeaturePlacementOptionsChangeArchitectureNotValidity) {
  for (const auto placement : {FeaturePlacement::kNodeFeatures,
                               FeaturePlacement::kKernelEmbedding}) {
    ModelConfig config = SmallConfig();
    config.tile_placement = placement;
    config.static_perf_placement = placement;
    LearnedCostModel model(config);
    const auto kernel = SmallKernel();
    FitOn(model, kernel);
    const PreparedKernel pk = model.Prepare(kernel);
    const ir::TileConfig tile{{8, 64}};
    EXPECT_TRUE(std::isfinite(model.PredictScore(pk, &tile)));
  }
}

TEST(CostModel, LogTargetExponentiatesSeconds) {
  ModelConfig config = SmallConfig();
  config.use_tile_features = false;
  config.log_target = true;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  model.SetOutputBias(-10.0f);
  const PreparedKernel pk = model.Prepare(kernel);
  const double score = model.PredictScore(pk);
  EXPECT_NEAR(model.PredictSeconds(pk), std::exp(score), 1e-12);
  EXPECT_GT(model.PredictSeconds(pk), 0.0);
}

TEST(CostModel, SetOutputBiasShiftsPrediction) {
  ModelConfig config = SmallConfig();
  config.use_tile_features = false;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  const double before = model.PredictScore(pk);
  model.SetOutputBias(static_cast<float>(before) + 5.0f);
  // Bias replacement moves the output (head weights unchanged).
  EXPECT_GT(model.PredictScore(pk), before);
}

// The training forward (ForwardBatch, training off, on a gradient tape),
// the reference every prediction equals bit for bit.
std::vector<double> TrainingForward(LearnedCostModel& model,
                                    const PreparedBatch& batch) {
  nn::Tape tape;
  const nn::Tensor out = model.ForwardBatch(tape, batch, /*training=*/false);
  std::vector<double> scores;
  for (int b = 0; b < out.rows(); ++b) scores.push_back(out.value().at(b, 0));
  return scores;
}

// A compiled plan folds the LSTM reduction's fused gate weight (the only
// value computed from parameters alone) into a constant. Every write path
// must drop the model's cached plans, so after each one PredictBatch equals
// the training forward bit for bit. A plan is cached before each write.
TEST(CostModel, EveryWriteDropsFoldedPlans) {
  ModelConfig config = SmallConfig();
  config.reduction = ReductionKind::kLstm;
  LearnedCostModel model(config);
  const auto kernel = SmallKernel();
  FitOn(model, kernel);
  const PreparedKernel pk = model.Prepare(kernel);
  const std::vector<ir::TileConfig> tiles = {
      ir::TileConfig{{8, 64}}, ir::TileConfig{{1, 8}},
      ir::TileConfig{{16, 64}}};
  std::vector<BatchItem> items;
  for (const auto& tile : tiles) items.push_back({&pk, &tile});
  const PreparedBatch batch = model.PrepareBatch(items);

  // Taken before any plan is cached, as a trainer takes them.
  const std::vector<nn::Parameter*> params = model.params().params();
  const auto cache_plan = [&] {
    (void)model.PredictBatch(batch);
    ASSERT_EQ(model.plan_cache().size(), 1u);
  };
  const auto expect_refolded = [&](const char* write) {
    const std::vector<double> predicted = model.PredictBatch(batch);
    EXPECT_EQ(predicted, TrainingForward(model, batch)) << write;
  };

  cache_plan();
  {
    // One trainer step: forward, loss and backward, then the Adam write.
    nn::AdamConfig adam_config;
    adam_config.learning_rate = 0.05;
    nn::Adam adam(adam_config);
    nn::Tape tape;
    const nn::Tensor out = model.ForwardBatch(tape, batch, /*training=*/true);
    const std::vector<double> targets = {1e-5, 3e-6, 2e-5};
    tape.Backward(nn::MseLogLoss(tape, out, targets));
    adam.Step(params);
  }
  expect_refolded("trainer step");

  cache_plan();
  model.SetOutputBias(0.25f);
  expect_refolded("SetOutputBias");

  cache_plan();
  ModelConfig other_config = config;
  other_config.seed = 99;
  LearnedCostModel other(other_config);
  FitOn(other, kernel);
  std::vector<nn::Matrix> values;
  for (const nn::Parameter* p : other.param_store().params()) {
    values.push_back(p->value);
  }
  model.Restore(other.node_scaler(), other.tile_scaler(), other.perf_scaler(),
                std::move(values));
  expect_refolded("Restore");

  cache_plan();
  for (nn::Parameter* p : model.params().params()) {
    for (float& v : p->value.flat()) v *= 1.5f;
  }
  expect_refolded("params()");
}

TEST(Trainer, ShortTileTrainingReducesLoss) {
  const auto program = data::BuildProgram("RNNLM", 0);
  const std::vector<ir::Program> corpus = {program};
  sim::TpuSimulator simulator(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 8;
  const auto dataset = data::BuildTileDataset(corpus, simulator, options);
  ASSERT_FALSE(dataset.kernels.empty());

  ModelConfig config = SmallConfig();
  config.train_steps = 300;
  LearnedCostModel model(config);
  PreparedCache cache(model);
  const std::vector<int> train_ids = {0};
  const TrainStats stats = TrainTileTask(model, dataset, train_ids, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss);
  EXPECT_EQ(stats.steps, 300);
}

TEST(Trainer, ShortFusionTrainingReducesLoss) {
  const auto program = data::BuildProgram("RankingLike", 0);
  const std::vector<ir::Program> corpus = {program};
  sim::TpuSimulator simulator(sim::TpuTarget::V2());
  analytical::AnalyticalModel analytical(sim::TpuTarget::V2());
  data::DatasetOptions options;
  options.fusion_configs_per_program = 4;
  const auto dataset =
      data::BuildFusionDataset(corpus, simulator, analytical, options);
  ASSERT_FALSE(dataset.samples.empty());

  ModelConfig config = ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 300;
  LearnedCostModel model(config);
  PreparedCache cache(model);
  const std::vector<int> train_ids = {0};
  const TrainStats stats = TrainFusionTask(model, dataset, train_ids, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss);
}

// Both in-memory trainers reject an empty training split, whatever the
// step count.
class TrainerNoData : public ::testing::TestWithParam<bool> {};

TEST_P(TrainerNoData, ThrowsWithoutTrainingData) {
  const bool tile = GetParam();
  ModelConfig config = SmallConfig();
  if (!tile) {
    config = ModelConfig::FusionTaskDefault();
    config.hidden_dim = 16;
    config.opcode_embedding_dim = 8;
  }
  for (const int steps : {config.train_steps, 0}) {
    config.train_steps = steps;
    LearnedCostModel model(config);
    PreparedCache cache(model);
    const std::vector<int> none;
    if (tile) {
      EXPECT_THROW(TrainTileTask(model, data::TileDataset{}, none, cache),
                   std::invalid_argument)
          << "train_steps " << steps;
    } else {
      EXPECT_THROW(TrainFusionTask(model, data::FusionDataset{}, none, cache),
                   std::invalid_argument)
          << "train_steps " << steps;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trainer, TrainerNoData, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tile" : "Fusion";
                         });

}  // namespace
}  // namespace tpuperf::core
