// Reproduces Figure 4: tile-size autotuner speedups over the compiler
// default (analytical-model-chosen tiles).
//
// Series:
//   Exhaustive       — measure every valid tile on hardware (upper bound);
//   Learned model 1  — the learned model replaces the analytical model
//                      inside the compiler (§7.1);
//   Learned model 10 — learned model picks top-10, verified on hardware;
//   Analytical 10    — analytical model picks top-10, verified on hardware.
//
// Programs: the eight random-split test programs plus four additional
// programs with the most exhaustive-search headroom (as in the paper).
// Expected shape: Learned-10 ~= Analytical-10 (within 1-3%), both close to
// Exhaustive; Learned-1 comparable to the default except on ConvDraw-like
// outliers, with some programs gaining up to ~20%.
#include <algorithm>
#include <cstdio>

#include "autotuner/tile_tuner.h"
#include "bench/common.h"

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  std::shared_ptr<data::StoredFeatures> features;
  const auto tile = BuildTile(env, env.sim_v2, analytical, &features);
  const auto& split = env.random_split;

  PrintBanner("Figure 4 — tile-size autotuner speedup over compiler default",
              "Exhaustive vs learned-in-compiler (top-1) vs learned/analytical "
              "top-10 + hardware verification.");

  auto trained = TrainTile(core::ModelConfig::TileTaskDefault(), tile,
                           split.train, env.scale, features.get());
  std::printf("tile model trained: %ld steps, %.0fs\n", trained.stats.steps,
              trained.stats.wall_seconds);

  tune::TileSizeAutotuner tuner(env.sim_v2, analytical);
  tune::LearnedEvaluator learned(*trained.model, *trained.cache);
  tune::AnalyticalEvaluator analytical_eval(analytical);

  // Benchmarks: the 8 test programs...
  std::vector<int> programs(split.test.begin(), split.test.end());
  // ...plus the 4 non-test programs with the most exhaustive headroom.
  {
    std::vector<std::pair<double, int>> headroom;
    for (size_t step = 0; step < split.train.size();
         step += std::max<size_t>(1, split.train.size() / 24)) {
      const int pid = split.train[step];
      const auto r = tuner.Tune(env.corpus[static_cast<size_t>(pid)],
                                tune::TileTuneMode::kExhaustive, nullptr);
      headroom.emplace_back(-r.Speedup(), pid);
    }
    std::sort(headroom.begin(), headroom.end());
    for (int i = 0; i < 4 && i < static_cast<int>(headroom.size()); ++i) {
      programs.push_back(headroom[static_cast<size_t>(i)].second);
    }
  }

  std::printf("\n%-18s %11s %11s %11s %12s %10s\n", "Program", "Exhaustive",
              "Learned-1", "Learned-10", "Analytical-10", "HW-sec(L10)");
  PrintRule();
  std::vector<double> s_ex, s_l1, s_l10, s_a10;
  for (size_t i = 0; i < programs.size(); ++i) {
    const ir::Program& program =
        env.corpus[static_cast<size_t>(programs[i])];
    const auto ex =
        tuner.Tune(program, tune::TileTuneMode::kExhaustive, nullptr);
    const auto l1 =
        tuner.Tune(program, tune::TileTuneMode::kModelOnly, &learned);
    const auto l10 =
        tuner.Tune(program, tune::TileTuneMode::kTopK, &learned, 10);
    const auto a10 =
        tuner.Tune(program, tune::TileTuneMode::kTopK, &analytical_eval, 10);
    std::printf("%-18s %10.3fx %10.3fx %10.3fx %11.3fx %10.0f%s\n",
                program.name.c_str(), ex.Speedup(), l1.Speedup(),
                l10.Speedup(), a10.Speedup(), l10.hardware_seconds,
                i >= programs.size() - 4 ? "  (headroom pick)" : "");
    s_ex.push_back(ex.Speedup());
    s_l1.push_back(l1.Speedup());
    s_l10.push_back(l10.Speedup());
    s_a10.push_back(a10.Speedup());
    std::fflush(stdout);
  }
  PrintRule();
  const auto gmean = [](const std::vector<double>& v) {
    double acc = 0;
    for (const double x : v) acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
  };
  std::printf("%-18s %10.3fx %10.3fx %10.3fx %11.3fx\n", "Geo-mean",
              gmean(s_ex), gmean(s_l1), gmean(s_l10), gmean(s_a10));
  std::printf(
      "\nExpected shape: Learned-10 within 1-3%% of Analytical-10; both near "
      "Exhaustive;\nLearned-1 occasionally above 1.0 (paper saw up to 20%% "
      "on Translate) and slightly\nbelow on a few benchmarks.\n");
  return 0;
}
