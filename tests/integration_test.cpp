// Cross-module integration tests: the full pipeline — corpus -> fusion ->
// datasets -> featurization -> training -> evaluation -> autotuning — on a
// small slice, asserting the paper's qualitative relationships end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "bench/common.h"
#include "core/evaluation.h"
#include "dataset/families.h"
#include "features/featurizer.h"
#include "serve/snapshot.h"
#include "sim/hash.h"

namespace tpuperf {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<ir::Program>();
    // Two variants each from three families: train on v0s, test on v1s.
    for (const char* family : {"RNNLM", "RankingLike", "Char2FeatsLike"}) {
      corpus_->push_back(data::BuildProgram(family, 0));
      corpus_->push_back(data::BuildProgram(family, 1));
    }
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
    data::DatasetOptions options;
    options.max_tile_configs_per_kernel = 12;
    options.fusion_configs_per_program = 4;
    tile_ = new data::TileDataset(
        data::BuildTileDataset(*corpus_, *simulator_, options));
    fusion_ = new data::FusionDataset(
        data::BuildFusionDataset(*corpus_, *simulator_, *analytical_, options));
  }
  static void TearDownTestSuite() {
    delete tile_;
    delete fusion_;
    delete analytical_;
    delete simulator_;
    delete corpus_;
  }

  static std::vector<ir::Program>* corpus_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
  static data::TileDataset* tile_;
  static data::FusionDataset* fusion_;

  static constexpr int kTrain[3] = {0, 2, 4};
  static constexpr int kTest[3] = {1, 3, 5};
};

std::vector<ir::Program>* IntegrationTest::corpus_ = nullptr;
sim::TpuSimulator* IntegrationTest::simulator_ = nullptr;
analytical::AnalyticalModel* IntegrationTest::analytical_ = nullptr;
data::TileDataset* IntegrationTest::tile_ = nullptr;
data::FusionDataset* IntegrationTest::fusion_ = nullptr;

TEST_F(IntegrationTest, TrainedTileModelBeatsRandomScorer) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 24;
  config.opcode_embedding_dim = 8;
  config.train_steps = 800;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  const auto stats = core::TrainTileTask(model, *tile_, kTrain, cache);
  EXPECT_LT(stats.final_loss, stats.first_loss * 0.7);

  const auto learned = core::EvaluateTileTask(
      *tile_, kTest, *corpus_, core::MakeLearnedTileScorer(model, cache));
  // A hash-based pseudo-random scorer as the floor.
  const core::TileScorer random_scorer =
      [](const data::TileKernelData& kernel, int c) {
        return static_cast<double>(
            sim::HashUnit(sim::HashCombine(kernel.record.fingerprint,
                                           static_cast<std::uint64_t>(c))));
      };
  const auto random = core::EvaluateTileTask(*tile_, kTest, *corpus_,
                                             random_scorer);
  EXPECT_LT(core::AggregateApe(learned).mean,
            core::AggregateApe(random).mean);
  EXPECT_GT(core::AggregateKendall(learned).mean, 0.4);
}

TEST_F(IntegrationTest, TrainedFusionModelGeneralizesToUnseenVariants) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 24;
  config.opcode_embedding_dim = 8;
  config.train_steps = 800;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainFusionTask(model, *fusion_, kTrain, cache);

  const auto results = core::EvaluateFusionTask(
      *fusion_, kTest, *corpus_,
      core::MakeLearnedFusionEstimator(model, cache), /*min_runtime_sec=*/0.0);
  // Within 60% error on unseen program variants with a tiny model: the
  // model must have learned real structure (a constant predictor lands in
  // the hundreds of percent on these mixed-magnitude kernels).
  EXPECT_LT(core::AggregateMape(results).mean, 60.0);
  EXPECT_GT(core::AggregateFusionKendall(results).mean, 0.5);
}

TEST_F(IntegrationTest, ModelSurvivesSerializationMidPipeline) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 100;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainTileTask(model, *tile_, kTrain, cache);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       "tpuperf_integration_test_midpipeline.tpms")
          .string();
  serve::SaveModelSnapshot(path, model);
  const std::unique_ptr<core::LearnedCostModel> restored =
      serve::LoadModelSnapshot(path);
  std::filesystem::remove(path);
  core::LearnedCostModel& loaded = *restored;
  core::PreparedCache loaded_cache(loaded);

  const auto& kdata = tile_->kernels.front();
  const data::KernelRecord& record = kdata.record;
  const auto& pk =
      cache.Get(record.kernel.graph, record.fingerprint, record.signature);
  const auto& pk2 = loaded_cache.Get(record.kernel.graph, record.fingerprint,
                                     record.signature);
  for (const auto& tile_config : kdata.configs) {
    EXPECT_DOUBLE_EQ(model.PredictScore(pk, &tile_config),
                     loaded.PredictScore(pk2, &tile_config));
  }
}

TEST_F(IntegrationTest, TileAutotunerWithLearnedModelEndToEnd) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 400;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainTileTask(model, *tile_, kTrain, cache);

  // EstimateKernel is a one-item EstimateBatch: same value, same charge.
  {
    const auto& kdata = tile_->kernels.front();
    const tune::KernelTileRef item{&kdata.record.kernel.graph,
                                   &kdata.configs.front()};
    tune::LearnedEvaluator single(model, cache);
    tune::LearnedEvaluator batched(model, cache);
    EXPECT_EQ(single.EstimateKernel(*item.kernel, *item.tile),
              batched.EstimateBatch(std::span(&item, 1)).front());
    EXPECT_EQ(single.SpentSeconds(), batched.SpentSeconds());
  }

  tune::TileSizeAutotuner tuner(*simulator_, *analytical_, 48);
  tune::LearnedEvaluator evaluator(model, cache);
  const auto& test_program = (*corpus_)[1];
  const auto exhaustive =
      tuner.Tune(test_program, tune::TileTuneMode::kExhaustive, nullptr);
  const auto top10 =
      tuner.Tune(test_program, tune::TileTuneMode::kTopK, &evaluator, 10);
  // Top-10 with hardware verification is bounded by exhaustive and must
  // recover most of its gain.
  EXPECT_LE(top10.Speedup(), exhaustive.Speedup() + 1e-9);
  EXPECT_GT(top10.Speedup(), 0.8 * exhaustive.Speedup());
  // The model-based search uses far less hardware than exhaustive.
  EXPECT_LT(top10.hardware_seconds, exhaustive.hardware_seconds);
}

TEST_F(IntegrationTest, FusionAutotunerWithLearnedModelEndToEnd) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 400;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model);
  core::TrainFusionTask(model, *fusion_, kTrain, cache);

  tune::FusionAutotuner tuner(*simulator_, *analytical_);
  tune::LearnedEvaluator evaluator(model, cache);
  tune::FusionTuneOptions options;
  options.max_steps = 50;
  options.hardware_budget_sec = 60;
  options.seed = 21;
  const auto result =
      tuner.TuneWithModel((*corpus_)[1], evaluator, options);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_GT(result.configs_explored, 0);
  EXPECT_LE(result.hardware_seconds, 90.0);
}

// The bench harness's store path: a cold build writes both tasks' stores,
// a warm one loads them, and training and evaluating both tasks from the
// features BuildTile/BuildFusion hand back never runs the featurizer.
TEST_F(IntegrationTest, BenchTrainsBothTasksFromAWarmStore) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("tpuperf_integration_store_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  bench::Env env;
  env.corpus = *corpus_;
  env.options.max_tile_configs_per_kernel = 12;
  env.options.fusion_configs_per_program = 4;
  env.dataset_dir = dir.string();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  std::shared_ptr<data::StoredFeatures> tile_features, fusion_features;
  (void)bench::BuildTile(env, env.sim_v2, analytical, &tile_features);
  (void)bench::BuildFusion(env, env.sim_v2, analytical, &fusion_features);

  feat::ResetFeaturizeKernelInvocations();
  const auto tile =
      bench::BuildTile(env, env.sim_v2, analytical, &tile_features);
  const auto fusion =
      bench::BuildFusion(env, env.sim_v2, analytical, &fusion_features);
  ASSERT_NE(tile_features, nullptr);
  ASSERT_NE(fusion_features, nullptr);
  EXPECT_EQ(tile.kernels.size(), tile_->kernels.size());
  EXPECT_EQ(fusion.samples.size(), fusion_->samples.size());

  core::ModelConfig tile_config = core::ModelConfig::TileTaskDefault();
  tile_config.hidden_dim = 16;
  tile_config.opcode_embedding_dim = 8;
  const auto tile_model = bench::TrainTile(tile_config, tile, kTrain,
                                           /*scale=*/0.01, tile_features.get());
  const auto tile_results = core::EvaluateTileTask(
      tile, kTest, env.corpus,
      core::MakeLearnedTileScorer(*tile_model.model, *tile_model.cache));

  core::ModelConfig fusion_config = core::ModelConfig::FusionTaskDefault();
  fusion_config.hidden_dim = 16;
  fusion_config.opcode_embedding_dim = 8;
  const auto fusion_model =
      bench::TrainFusion(fusion_config, fusion, kTrain, /*scale=*/0.01,
                         fusion_features.get());
  const auto fusion_results = core::EvaluateFusionTask(
      fusion, kTest, env.corpus,
      core::MakeLearnedFusionEstimator(*fusion_model.model,
                                       *fusion_model.cache),
      /*min_runtime_sec=*/0.0);

  EXPECT_EQ(tile_model.stats.steps, 200);
  EXPECT_EQ(fusion_model.stats.steps, 200);
  // The scorers ran over every test program's records.
  for (const auto& r : tile_results) EXPECT_GT(r.kernels, 0) << r.application;
  for (const auto& r : fusion_results) {
    EXPECT_GT(r.kernels, 0) << r.application;
  }
  EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0);
  std::filesystem::remove_all(dir);
}

TEST_F(IntegrationTest, BenchEnvironmentIsConstructible) {
  // Guards the bench harness entry points without paying full bench cost.
  EXPECT_GT(bench::ReproScale(), 0.0);
  const auto names = data::FamilyNames();
  EXPECT_EQ(names.size(), 18u);
}

// REPRO_SCALE scales budgets through static_cast<int> and std::lround, so
// only a full-string finite value in (0, 64] may get through; anything else
// falls back to 1.0.
TEST_F(IntegrationTest, ReproScaleParsesStrictly) {
  const char* saved = std::getenv("REPRO_SCALE");
  const std::string restore = saved == nullptr ? "" : saved;

  ::unsetenv("REPRO_SCALE");
  EXPECT_EQ(bench::ReproScale(), 1.0);
  for (const auto& [text, expected] :
       std::vector<std::pair<const char*, double>>{{"0.5", 0.5},
                                                   {"8", 8.0},
                                                   {"64", 64.0},
                                                   {"1e-3", 1e-3}}) {
    ::setenv("REPRO_SCALE", text, 1);
    EXPECT_EQ(bench::ReproScale(), expected) << text;
  }
  for (const char* rejected :
       {"0.1x", "", " 2", "2 ", "x", "inf", "-inf", "nan", "1e12", "64.5",
        "0", "-1"}) {
    ::setenv("REPRO_SCALE", rejected, 1);
    EXPECT_EQ(bench::ReproScale(), 1.0) << '"' << rejected << '"';
  }

  if (saved == nullptr) {
    ::unsetenv("REPRO_SCALE");
  } else {
    ::setenv("REPRO_SCALE", restore.c_str(), 1);
  }
}

}  // namespace
}  // namespace tpuperf
