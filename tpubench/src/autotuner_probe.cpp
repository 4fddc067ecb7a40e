// The autotuner probe: a short model-guided simulated-annealing fusion
// search (tune::FusionAutotuner::TuneWithModel, paper §7.3 / Fig. 5) that
// measures how a search spends its time — the learned model's share of it
// (autotuner.model_eval_share) and how many kernels each scored config
// featurizes cold (feat.featurize_per_config).
#include <algorithm>

#include "autotuner/fusion_tuner.h"
#include "features/featurizer.h"
#include "pipeline.h"
#include "trace.h"

namespace tpubench {
namespace {

namespace tune = tpuperf::tune;

// Annealing steps and hardware validation of every probe job.
constexpr int kSearchSteps = 200;
constexpr int kValidateTop = 8;
constexpr double kHardwareBudgetSec = 600;
// Programs searched, one job each.
constexpr std::size_t kProbeJobs = 3;

// Passes every call through to the learned evaluator, timing EstimateBatch
// (the model's share of search time).
class TimingEvaluator final : public tune::CostEvaluator {
 public:
  explicit TimingEvaluator(tune::CostEvaluator& inner) : inner_(inner) {}

  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override {
    return inner_.EstimateKernel(kernel, tile);
  }
  std::vector<std::optional<double>> EstimateBatch(
      std::span<const tune::KernelTileRef> items) override {
    const auto start = Clock::now();
    std::vector<std::optional<double>> out;
    {
      Span span("core.estimate_batch");
      out = inner_.EstimateBatch(items);
    }
    busy_s_ += SecondsSince(start);
    return out;
  }
  double SpentSeconds() const override { return inner_.SpentSeconds(); }
  std::string_view name() const override { return "timed"; }

  double busy_s() const noexcept { return busy_s_; }

 private:
  tune::CostEvaluator& inner_;
  double busy_s_ = 0;
};

}  // namespace

void ProbeAutotuner(Report& report, const core::LearnedCostModel& model,
                    const std::vector<const ir::Program*>& programs) {
  const analytical::AnalyticalModel analytical(Simulator().target());
  const tune::FusionAutotuner tuner(Simulator(), analytical);
  std::size_t configs = 0;
  double eval_busy_s = 0;
  const long featurized_before = feat::FeaturizeKernelInvocations();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < std::min(kProbeJobs, programs.size()); ++i) {
    // A fresh cache per job: the kernels its candidate configs produce
    // featurize cold, as they do for a compiler tuning a new program.
    core::PreparedCache cache(model);
    tune::LearnedEvaluator learned(model, cache);
    TimingEvaluator timed(learned);
    tune::FusionTuneOptions options;
    options.max_steps = kSearchSteps;
    options.validate_top = kValidateTop;
    options.hardware_budget_sec = kHardwareBudgetSec;
    options.seed = i + 1;
    Span span("autotuner.tune_with_model");
    configs += static_cast<std::size_t>(
        tuner.TuneWithModel(*programs[i], timed, options).configs_explored);
    eval_busy_s += timed.busy_s();
  }
  const double wall_s = SecondsSince(start);
  const long featurized = feat::FeaturizeKernelInvocations() - featurized_before;
  SetLayer(report, "autotuner.model_eval_share", eval_busy_s / wall_s, "ratio");
  SetLayer(report, "feat.featurize_per_config",
           static_cast<double>(featurized) /
               static_cast<double>(std::max<std::size_t>(1, configs)),
           "count");
}

}  // namespace tpubench
