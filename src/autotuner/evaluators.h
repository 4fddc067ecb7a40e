// Cost evaluators for the autotuner (paper Fig. 1): real hardware (the
// simulator, with a simulated wall-clock budget for compile+run), the
// learned cost model, and the analytical model.
//
// The paper's motivation: "TPUs are in high demand, so we wish to minimize
// their use during autotuning" (§7.3). HardwareEvaluator charges simulated
// seconds per evaluation so experiments can reproduce the 1-minute /
// 10-minute hardware budgets of Fig. 5.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analytical/analytical_model.h"
#include "core/evaluation.h"
#include "ir/graph.h"
#include "ir/tile.h"
#include "sim/simulator.h"

namespace tpuperf::tune {

// One (kernel, tile) query of a batched estimate.
struct KernelTileRef {
  const ir::Graph* kernel = nullptr;
  const ir::TileConfig* tile = nullptr;
};

// Abstract kernel-runtime estimator with an accumulated evaluation cost.
class CostEvaluator {
 public:
  virtual ~CostEvaluator() = default;

  // Estimated runtime (seconds) of a kernel under a tile config, or nullopt
  // when the evaluator cannot handle the kernel.
  virtual std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                               const ir::TileConfig& tile) = 0;

  // Batched estimate of many (kernel, tile) pairs. Result i corresponds to
  // items[i]. The base implementation loops EstimateKernel; evaluators with
  // a real batched path (the learned model) override it.
  virtual std::vector<std::optional<double>> EstimateBatch(
      std::span<const KernelTileRef> items);

  // Simulated wall-clock seconds spent so far on evaluations.
  virtual double SpentSeconds() const = 0;

  virtual std::string_view name() const = 0;
};

// "Real hardware": measures on the simulator; each distinct kernel costs
// compile time and each measurement costs run time. Results are cached, as
// an autotuner harness would cache identical kernels.
class HardwareEvaluator : public CostEvaluator {
 public:
  struct Costs {
    double compile_sec = 0.6;   // per distinct kernel
    double run_sec = 0.05;      // per measurement (3 runs + harness overhead)
  };

  explicit HardwareEvaluator(const sim::TpuSimulator& simulator)
      : simulator_(simulator) {}
  HardwareEvaluator(const sim::TpuSimulator& simulator, Costs costs)
      : simulator_(simulator), costs_(costs) {}

  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override;
  double SpentSeconds() const override { return spent_; }
  std::string_view name() const override { return "hardware"; }

  long measurements() const noexcept { return measurements_; }

 private:
  const sim::TpuSimulator& simulator_;
  Costs costs_;
  double spent_ = 0;
  long measurements_ = 0;
  std::unordered_map<std::uint64_t, double> cache_;
  std::unordered_map<std::uint64_t, bool> compiled_;
};

// The learned cost model (cheap: CPU inference).
class LearnedEvaluator : public CostEvaluator {
 public:
  LearnedEvaluator(const core::LearnedCostModel& model,
                   core::PreparedCache& cache, double inference_sec = 2e-4)
      : model_(model), cache_(cache), inference_sec_(inference_sec) {}

  // A one-item EstimateBatch: same value, memo and charged cost.
  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override;
  // Packs all un-memoized queries into PreparedBatch chunks and runs them
  // through LearnedCostModel::PredictBatch — one large forward pass instead
  // of one per candidate, in sub-batches of kMaxBatch. Batched inference
  // is charged a discounted per-query cost (large GEMMs amortize per-graph
  // overhead).
  std::vector<std::optional<double>> EstimateBatch(
      std::span<const KernelTileRef> items) override;
  double SpentSeconds() const override { return spent_; }
  std::string_view name() const override { return "learned"; }

  // Upper bound on kernels packed per PredictBatch call.
  static constexpr int kMaxBatch = 64;

 private:
  const core::LearnedCostModel& model_;
  core::PreparedCache& cache_;
  double inference_sec_;
  double spent_ = 0;
  std::unordered_map<std::uint64_t, double> memo_;
};

// The analytical model (cheapest; unsupported on data-formatting kernels).
class AnalyticalEvaluator : public CostEvaluator {
 public:
  explicit AnalyticalEvaluator(const analytical::AnalyticalModel& model)
      : model_(model) {}

  std::optional<double> EstimateKernel(const ir::Graph& kernel,
                                       const ir::TileConfig& tile) override;
  double SpentSeconds() const override { return spent_; }
  std::string_view name() const override { return "analytical"; }

 private:
  const analytical::AnalyticalModel& model_;
  double spent_ = 0;
};

}  // namespace tpuperf::tune
