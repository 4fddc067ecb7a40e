#include "autotuner/fusion_tuner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace tpuperf::tune {
namespace {

// Simulated-annealing schedule: the temperature starts at
// kInitialTemperature and is multiplied by kCooling before every step.
constexpr double kInitialTemperature = 0.25;
constexpr double kCooling = 0.995;
// Cost-model search budget in model-evaluation seconds ("an hour on CPU",
// effectively unbounded at this scale — the step cap binds first).
constexpr double kModelBudgetSec = 3600;

// What both arms search over: the program's edges, its compiler tile
// choices, the seeded RNG, the compiler default config's true runtime and
// the walk's start config.
struct FusionSearch {
  FusionSearch(const ir::Program& program, const sim::TpuSimulator& simulator,
               const analytical::AnalyticalModel& analytical,
               const FusionTuneOptions& options)
      : program(program),
        simulator(simulator),
        analytical(analytical),
        edges(data::EdgeList::FromGraph(program.graph)),
        rng(options.seed) {
    const data::FusionConfig default_config =
        data::DefaultFusion(program.graph, edges);
    // Measured on an evaluator of its own: no search budget pays for it.
    HardwareEvaluator unbudgeted(simulator);
    default_runtime = Cost(default_config, unbudgeted);
    start = options.start_from_default
                ? default_config
                : data::RandomFusion(program.graph, edges, rng, 0.5);
  }

  // Total cost of the program under `config` according to `evaluator`. All
  // kernels of the config are scored in one batched call (the learned
  // evaluator packs them into a single forward pass).
  double Cost(const data::FusionConfig& config, CostEvaluator& evaluator) {
    const auto kernels = data::ApplyFusion(program.graph, edges, config);
    std::vector<KernelTileRef> refs;
    refs.reserve(kernels.size());
    for (const ir::Kernel& kernel : kernels) {
      // The compiler's tile is a pure function of the kernel, so one choice
      // per fingerprint serves every config and evaluator of the search.
      const std::uint64_t fp = kernel.graph.Fingerprint();
      auto it = tiles.find(fp);
      if (it == tiles.end()) {
        it = tiles.emplace(fp, data::CompilerDefaultTile(
                                   kernel.graph, simulator, analytical))
                 .first;
      }
      refs.push_back({&kernel.graph, &it->second});
    }
    double total = 0;
    for (const auto& cost : evaluator.EstimateBatch(refs)) {
      if (cost.has_value()) total += *cost;
      // Kernels the evaluator cannot score contribute nothing; only the
      // analytical evaluator on data-formatting kernels hits this (§7.3
      // notes the analytical model is unusable as a fusion guide for this
      // reason).
    }
    return total;
  }

  // The annealing walk both arms run: from `start`, up to `max_steps`
  // single-edge flips while `within_budget()` holds, each candidate scored
  // by `evaluator` and accepted by the Metropolis rule on its relative cost
  // change. `visit(cost, config)` sees the start config and then every
  // scored candidate. Returns the number of candidates scored (the start
  // not counted).
  int Anneal(int max_steps, CostEvaluator& evaluator,
             const std::function<bool()>& within_budget,
             const std::function<void(double, const data::FusionConfig&)>&
                 visit) {
    data::FusionConfig current = start;
    double current_cost = Cost(current, evaluator);
    visit(current_cost, current);
    int scored = 0;
    double temperature = kInitialTemperature;
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int step = 0; step < max_steps && within_budget(); ++step) {
      const auto next = data::FlipOneEdge(program.graph, edges, current, rng);
      temperature *= kCooling;
      if (!next.has_value()) continue;
      const double next_cost = Cost(*next, evaluator);
      ++scored;
      visit(next_cost, *next);
      const double relative =
          (next_cost - current_cost) / std::max(current_cost, 1e-12);
      if (next_cost <= current_cost ||
          unit(rng) < std::exp(-relative / std::max(temperature, 1e-6))) {
        current = *next;
        current_cost = next_cost;
      }
    }
    return scored;
  }

  const ir::Program& program;
  const sim::TpuSimulator& simulator;
  const analytical::AnalyticalModel& analytical;
  const data::EdgeList edges;
  std::unordered_map<std::uint64_t, ir::TileConfig> tiles;  // by fingerprint
  std::mt19937_64 rng;
  double default_runtime = 0;
  data::FusionConfig start;
};

}  // namespace

FusionTuneResult FusionAutotuner::TuneWithHardware(
    const ir::Program& program, const FusionTuneOptions& options) const {
  FusionSearch search(program, simulator_, analytical_, options);
  HardwareEvaluator hardware(simulator_);
  // Every config the walk visits is measured, so the best one seen is the
  // best config's true runtime (a better candidate is always accepted).
  double best = std::numeric_limits<double>::infinity();
  const int scored = search.Anneal(
      options.max_steps, hardware,
      [&] { return hardware.SpentSeconds() < options.hardware_budget_sec; },
      [&](double cost, const data::FusionConfig&) {
        best = std::min(best, cost);
      });

  if (options.start_from_default) {
    // The compiler falls back to its default when search finds nothing
    // better; from a random start the search result stands on its own
    // (§7.3's random-start comparison).
    best = std::min(best, search.default_runtime);
  }

  FusionTuneResult result;
  result.program = program.name;
  result.default_runtime_sec = search.default_runtime;
  result.best_runtime_sec = best;
  result.hardware_seconds = hardware.SpentSeconds();
  result.configs_explored = 1 + scored;
  return result;
}

FusionTuneResult FusionAutotuner::TuneWithModel(
    const ir::Program& program, CostEvaluator& model,
    const FusionTuneOptions& options) const {
  FusionSearch search(program, simulator_, analytical_, options);

  // ---- Phase 1: anneal on the cost model (CPU) ----------------------------
  // Best-first pool of distinct candidates, keyed by predicted cost.
  std::multimap<double, data::FusionConfig> pool;
  std::unordered_set<std::uint64_t> pooled;
  const double model_start = model.SpentSeconds();
  const int scored = search.Anneal(
      options.max_steps, model,
      [&] { return model.SpentSeconds() - model_start < kModelBudgetSec; },
      [&](double cost, const data::FusionConfig& config) {
        if (!pooled.insert(config.Fingerprint()).second) return;
        pool.emplace(cost, config);
        while (static_cast<int>(pool.size()) > options.validate_top) {
          pool.erase(std::prev(pool.end()));
        }
      });

  // ---- Phase 2: validate promising configs on hardware, in ranked order ---
  HardwareEvaluator hardware(simulator_);
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [predicted, config] : pool) {
    if (hardware.SpentSeconds() >= options.hardware_budget_sec) break;
    best = std::min(best, search.Cost(config, hardware));
  }
  if (options.start_from_default || !std::isfinite(best)) {
    best = std::min(best, search.default_runtime);
  }

  FusionTuneResult result;
  result.program = program.name;
  result.default_runtime_sec = search.default_runtime;
  result.best_runtime_sec = best;
  result.hardware_seconds = hardware.SpentSeconds();
  result.configs_explored = scored;
  return result;
}

}  // namespace tpuperf::tune
