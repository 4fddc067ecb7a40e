// Fusion autotuning via simulated annealing (paper §7.3, Fig. 5).
//
// Two regimes:
//   * Hardware-only ('HW m'): simulated annealing where every configuration
//     cost is measured on the (simulated) TPU, until the hardware-seconds
//     budget runs out.
//   * Cost model + hardware ('Cost model + HW m'): annealing is driven by a
//     cost model on CPU first; the most promising configurations are then
//     validated on hardware, in predicted order, within a small hardware
//     budget.
#pragma once

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "autotuner/evaluators.h"
#include "dataset/datasets.h"
#include "dataset/fusion.h"
#include "ir/program.h"

namespace tpuperf::tune {

struct FusionTuneOptions {
  // Annealing steps (the schedule's temperature and cooling, and the cost
  // model's search budget, are fixed in fusion_tuner.cpp).
  int max_steps = 600;

  // Hardware-seconds budget (Fig. 5: 60 or 600 seconds).
  double hardware_budget_sec = 600;
  // Top configurations validated on hardware, in predicted-cost order.
  int validate_top = 8;

  // Start from the compiler default config (Fig. 5) or a random one (§7.3's
  // random-start experiment).
  bool start_from_default = true;
  std::uint64_t seed = 1;
};

struct FusionTuneResult {
  std::string program;
  double default_runtime_sec = 0;  // true runtime of the default config
  double best_runtime_sec = 0;     // true runtime of the best found config
  double hardware_seconds = 0;     // hardware budget actually consumed
  // Configs the annealing walk scored: the hardware arm counts its start
  // config, the model arm counts only the candidates after it.
  // examples/fusion_search prints it; tpubench divides featurizations by it.
  int configs_explored = 0;

  double Speedup() const {
    return best_runtime_sec > 0 ? default_runtime_sec / best_runtime_sec : 1.0;
  }
};

class FusionAutotuner {
 public:
  FusionAutotuner(const sim::TpuSimulator& simulator,
                  const analytical::AnalyticalModel& analytical)
      : simulator_(simulator), analytical_(analytical) {}

  // Hardware-only annealing.
  FusionTuneResult TuneWithHardware(const ir::Program& program,
                                    const FusionTuneOptions& options) const;

  // Cost-model-guided annealing with hardware validation. `model` scores
  // kernels (absolute-runtime scale).
  FusionTuneResult TuneWithModel(const ir::Program& program,
                                 CostEvaluator& model,
                                 const FusionTuneOptions& options) const;

 private:
  const sim::TpuSimulator& simulator_;
  const analytical::AnalyticalModel& analytical_;
};

}  // namespace tpuperf::tune
