// Tests for the autotuner: evaluator cost accounting and caching, tile-size
// tuning invariants (exhaustive dominates, oracle top-k equals exhaustive),
// and fusion annealing budgets/determinism, including the two arms' shared
// walk.
#include <gtest/gtest.h>

#include "autotuner/fusion_tuner.h"
#include "autotuner/tile_tuner.h"
#include "dataset/families.h"
#include "ir/builder.h"

namespace tpuperf::tune {
namespace {

class AutotunerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new ir::Program(data::BuildProgram("RNNLM", 0));
    conv_program_ = new ir::Program(data::BuildProgram("ImageEmbedLike", 0));
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
  }
  static void TearDownTestSuite() {
    delete program_;
    delete conv_program_;
    delete simulator_;
    delete analytical_;
  }

  static ir::Program* program_;
  static ir::Program* conv_program_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
};

ir::Program* AutotunerTest::program_ = nullptr;
ir::Program* AutotunerTest::conv_program_ = nullptr;
sim::TpuSimulator* AutotunerTest::simulator_ = nullptr;
analytical::AnalyticalModel* AutotunerTest::analytical_ = nullptr;

TEST_F(AutotunerTest, HardwareEvaluatorChargesAndCaches) {
  HardwareEvaluator hw(*simulator_);
  ir::GraphBuilder b;
  b.Dot(b.Parameter(ir::Shape({64, 64})), b.Parameter(ir::Shape({64, 64})));
  const auto kernel = std::move(b).Build();
  const ir::TileConfig tile{{64, 64}};
  EXPECT_DOUBLE_EQ(hw.SpentSeconds(), 0.0);
  const auto first = hw.EstimateKernel(kernel, tile);
  ASSERT_TRUE(first.has_value());
  const double spent_after_one = hw.SpentSeconds();
  EXPECT_GT(spent_after_one, 0.5);  // compile + run
  // Cached: same kernel+tile costs nothing more.
  const auto second = hw.EstimateKernel(kernel, tile);
  EXPECT_DOUBLE_EQ(*second, *first);
  EXPECT_DOUBLE_EQ(hw.SpentSeconds(), spent_after_one);
  EXPECT_EQ(hw.measurements(), 1);
  // New tile on a compiled kernel: run cost only.
  hw.EstimateKernel(kernel, ir::TileConfig{{32, 64}});
  EXPECT_NEAR(hw.SpentSeconds() - spent_after_one, 0.05, 1e-9);
}

TEST_F(AutotunerTest, AnalyticalEvaluatorRejectsDataFormatting) {
  AnalyticalEvaluator eval(*analytical_);
  ir::GraphBuilder b;
  const ir::NodeId x = b.Parameter(ir::Shape({8, 8}));
  b.Reshape(x, ir::Shape({64}));
  const auto kernel = std::move(b).Build();
  EXPECT_FALSE(eval.EstimateKernel(kernel, ir::TileConfig{{64}}).has_value());
}

TEST_F(AutotunerTest, ExhaustiveNeverSlowerThanDefault) {
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/64);
  const auto result =
      tuner.Tune(*program_, TileTuneMode::kExhaustive, nullptr);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_GT(result.kernels, 0);
  EXPECT_GT(result.hardware_seconds, 0.0);
}

TEST_F(AutotunerTest, OracleTopKWithAllCandidatesMatchesExhaustive) {
  // A ranker that IS the hardware gives exhaustive results for large k.
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/32);
  HardwareEvaluator oracle(*simulator_);
  const auto exhaustive =
      tuner.Tune(*conv_program_, TileTuneMode::kExhaustive, nullptr);
  const auto topk =
      tuner.Tune(*conv_program_, TileTuneMode::kTopK, &oracle, 32);
  EXPECT_NEAR(topk.tuned_runtime_sec, exhaustive.tuned_runtime_sec, 1e-12);
}

TEST_F(AutotunerTest, TopKImprovesWithK) {
  TileSizeAutotuner tuner(*simulator_, *analytical_, /*max_candidates=*/64);
  AnalyticalEvaluator ranker(*analytical_);
  const auto k1 = tuner.Tune(*conv_program_, TileTuneMode::kTopK, &ranker, 1);
  const auto k10 =
      tuner.Tune(*conv_program_, TileTuneMode::kTopK, &ranker, 10);
  EXPECT_LE(k10.tuned_runtime_sec, k1.tuned_runtime_sec * 1.0001);
}

TEST_F(AutotunerTest, ModelOnlyRequiresRanker) {
  TileSizeAutotuner tuner(*simulator_, *analytical_);
  EXPECT_THROW(tuner.Tune(*program_, TileTuneMode::kModelOnly, nullptr),
               std::invalid_argument);
}

TEST_F(AutotunerTest, FusionHardwareTuningRespectsBudgetAndImproves) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 60;
  options.hardware_budget_sec = 120;
  options.seed = 3;
  const auto result = tuner.TuneWithHardware(*program_, options);
  EXPECT_GE(result.Speedup(), 1.0);  // default fallback guarantees this
  EXPECT_LE(result.hardware_seconds, options.hardware_budget_sec + 10.0);
  EXPECT_GT(result.configs_explored, 0);
}

TEST_F(AutotunerTest, FusionTuningDeterministicPerSeed) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 40;
  options.seed = 11;
  const auto a = tuner.TuneWithHardware(*program_, options);
  const auto b = tuner.TuneWithHardware(*program_, options);
  EXPECT_DOUBLE_EQ(a.best_runtime_sec, b.best_runtime_sec);
  options.seed = 12;
  // Different seeds may find different configs (not asserted equal).
  const auto c = tuner.TuneWithHardware(*program_, options);
  EXPECT_GT(c.best_runtime_sec, 0.0);
}

TEST_F(AutotunerTest, ModelGuidedTuningUsesLittleHardware) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 50;
  options.hardware_budget_sec = 60;
  options.seed = 5;
  // The "model" here is the analytical evaluator (cheap, always available).
  AnalyticalEvaluator model(*analytical_);
  const auto result = tuner.TuneWithModel(*program_, model, options);
  EXPECT_GE(result.Speedup(), 1.0);
  EXPECT_LE(result.hardware_seconds, 90.0);  // only validation spends HW
}

// Both arms run the same annealing walk: with the hardware itself as the
// "model", a validation pool larger than the walk and a hardware budget
// that never binds, the model arm validates every config the hardware arm
// measured, so both reach the same best runtime. The model arm is
// deterministic per seed too.
TEST_F(AutotunerTest, ModelArmScoredByHardwareMatchesHardwareArm) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  for (const bool from_default : {true, false}) {
    SCOPED_TRACE(from_default ? "default start" : "random start");
    FusionTuneOptions options;
    options.max_steps = 40;
    options.validate_top = options.max_steps + 1;
    options.hardware_budget_sec = 1e9;
    options.start_from_default = from_default;
    options.seed = from_default ? 21 : 22;
    const auto hardware_arm = tuner.TuneWithHardware(*program_, options);
    HardwareEvaluator model(*simulator_);
    const auto model_arm = tuner.TuneWithModel(*program_, model, options);
    EXPECT_EQ(model_arm.best_runtime_sec, hardware_arm.best_runtime_sec);
    EXPECT_EQ(model_arm.default_runtime_sec, hardware_arm.default_runtime_sec);

    HardwareEvaluator again(*simulator_);
    const auto repeat = tuner.TuneWithModel(*program_, again, options);
    EXPECT_EQ(repeat.best_runtime_sec, model_arm.best_runtime_sec);
    EXPECT_EQ(repeat.hardware_seconds, model_arm.hardware_seconds);
    EXPECT_EQ(repeat.configs_explored, model_arm.configs_explored);
  }
}

TEST_F(AutotunerTest, RandomStartIsNotClampedToDefault) {
  FusionAutotuner tuner(*simulator_, *analytical_);
  FusionTuneOptions options;
  options.max_steps = 10;  // too few steps to recover from a random start
  options.start_from_default = false;
  options.seed = 9;
  const auto result = tuner.TuneWithHardware(*program_, options);
  // Speedup may legitimately be < 1 from a random start.
  EXPECT_GT(result.best_runtime_sec, 0.0);
}

}  // namespace
}  // namespace tpuperf::tune
