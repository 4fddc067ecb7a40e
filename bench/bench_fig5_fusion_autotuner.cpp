// Reproduces Figure 5: fusion autotuner speedups over the compiler-default
// fusion configuration, using hardware alone vs the learned cost model plus
// hardware, under simulated hardware-time budgets.
//
// Series ('HW m' = m minutes of simulated hardware time):
//   HW 10                 — simulated annealing on hardware for 10 minutes;
//   Cost model + HW 1     — anneal on the learned model (CPU), validate the
//                           top configs on hardware for 1 minute;
//   Cost model + HW 10    — same with a 10-minute validation budget;
//   HW 240 (best known)   — a long hardware run standing in for the paper's
//                           4-hour reference.
//
// Each experiment runs 3 times; solid value = median best speedup, range =
// min..max, matching the figure's error bars. A final paragraph reproduces
// the random-start comparison (§7.3: model-guided search finds ~10% faster
// configurations when starting from a random configuration).
#include <algorithm>
#include <cstdio>

#include "autotuner/fusion_tuner.h"
#include "bench/common.h"

namespace {

struct Series {
  std::vector<double> speedups;
  double median() const {
    auto v = speedups;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }
  double min() const {
    return *std::min_element(speedups.begin(), speedups.end());
  }
  double max() const {
    return *std::max_element(speedups.begin(), speedups.end());
  }
};

}  // namespace

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  std::shared_ptr<data::StoredFeatures> features;
  auto fusion = BuildFusion(env, env.sim_v2, analytical, &features);
  const auto& split = env.random_split;
  CalibrateAnalytical(analytical, fusion, split.train);

  PrintBanner("Figure 5 — fusion autotuner speedup over default config",
              "Simulated annealing with hardware only vs learned cost model "
              "+ hardware, under hardware-minute budgets (3 runs; median "
              "[min..max]).");

  auto trained = TrainFusion(core::ModelConfig::FusionTaskDefault(), fusion,
                             split.train, env.scale, features.get());
  std::printf("fusion model trained: %ld steps, %.0fs\n", trained.stats.steps,
              trained.stats.wall_seconds);

  tune::FusionAutotuner tuner(env.sim_v2, analytical);

  // Programs that gain from fusion autotuning; like the paper, a mix that
  // includes programs whose *families* appear in training (kernels seen
  // during this evaluation still differ, §7.3).
  const char* names[] = {"transformer_lm_v1", "char2feats_v0", "nmt_v3",
                         "convdraw_v2",       "ranking_v1",    "resnet_v1_v2"};
  std::vector<const ir::Program*> programs;
  for (const char* name : names) {
    for (const auto& p : env.corpus) {
      if (p.name == name) programs.push_back(&p);
    }
  }

  const int kRuns = 3;
  const int sa_steps = std::max(60, static_cast<int>(300 * env.scale));

  std::printf("\n%-20s | %-22s %-22s %-22s %-22s\n", "Program", "HW 10",
              "Cost model + HW 1", "Cost model + HW 10", "HW 240 (best known)");
  PrintRule();
  for (const ir::Program* program : programs) {
    Series hw10, model1, model10, hw240;
    for (int run = 0; run < kRuns; ++run) {
      tune::FusionTuneOptions options;
      options.max_steps = sa_steps;
      options.seed = 1000 + static_cast<std::uint64_t>(run);

      options.hardware_budget_sec = 600;
      hw10.speedups.push_back(
          tuner.TuneWithHardware(*program, options).Speedup());

      tune::LearnedEvaluator learned(*trained.model, *trained.cache);
      options.hardware_budget_sec = 60;
      model1.speedups.push_back(
          tuner.TuneWithModel(*program, learned, options).Speedup());
      options.hardware_budget_sec = 600;
      model10.speedups.push_back(
          tuner.TuneWithModel(*program, learned, options).Speedup());

      options.hardware_budget_sec = 4 * 3600;
      options.max_steps = sa_steps * 4;
      hw240.speedups.push_back(
          tuner.TuneWithHardware(*program, options).Speedup());
    }
    const auto cell = [](const Series& s) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.3f [%.3f..%.3f]", s.median(), s.min(),
                    s.max());
      return std::string(buf);
    };
    std::printf("%-20s | %-22s %-22s %-22s %-22s\n", program->name.c_str(),
                cell(hw10).c_str(), cell(model1).c_str(),
                cell(model10).c_str(), cell(hw240).c_str());
    std::fflush(stdout);
  }
  PrintRule();
  std::printf(
      "Expected shape: Cost model + HW 1 min ~= HW 10 min (the model removes "
      "~90%% of the\nhardware time); Cost model + HW ~1.5%% faster than HW "
      "alone on average; both within\na few %% of the 4-hour best-known.\n");

  // ---- §7.3 random-start comparison ---------------------------------------
  std::printf("\nRandom-start comparison (§7.3): starting annealing from a "
              "random configuration\n");
  double with_model = 0, without_model = 0;
  int counted = 0;
  for (size_t i = 0; i < 3 && i < programs.size(); ++i) {
    tune::FusionTuneOptions options;
    options.max_steps = sa_steps;
    options.start_from_default = false;
    options.seed = 77 + i;
    options.hardware_budget_sec = 600;
    tune::LearnedEvaluator learned(*trained.model, *trained.cache);
    const auto with = tuner.TuneWithModel(*programs[i], learned, options);
    const auto without = tuner.TuneWithHardware(*programs[i], options);
    with_model += with.Speedup();
    without_model += without.Speedup();
    ++counted;
    std::printf("  %-20s model+HW %.3fx  HW-only %.3fx\n",
                programs[i]->name.c_str(), with.Speedup(), without.Speedup());
  }
  if (counted > 0) {
    std::printf("  mean: model+HW %.3fx vs HW-only %.3fx  [paper: ~10%% "
                "faster configurations with the model]\n",
                with_model / counted, without_model / counted);
  }
  return 0;
}
