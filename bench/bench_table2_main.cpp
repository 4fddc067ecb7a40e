// Reproduces Table 2: the main evaluation on the randomly-split test set —
// per-application Tile-Size APE and Kendall's tau (tile-size task) and MAPE
// and Kendall's tau over kernels >= 5us (fusion task), learned model vs the
// analytical baseline — plus the §5.1/§5.2 TPU v3 paragraphs.
//
// Expected shape (paper): learned slightly better than analytical on the
// tile task (3.7% vs 6.1% mean APE), and substantially better on the fusion
// task (4.5 vs 31.1 mean MAPE), consistently across applications except
// ConvDraw.
#include <cstdio>
#include <map>

#include "bench/common.h"

namespace tpuperf::bench {
namespace {

// Paper Table 2 reference values per application (random split).
struct PaperRow {
  double tile_ape_learned, tile_ape_analytical;
  double tile_tau_learned, tile_tau_analytical;
  double fusion_mape_learned, fusion_mape_analytical;
  double fusion_tau_learned, fusion_tau_analytical;
};
const std::map<std::string, PaperRow> kPaper = {
    {"ConvDrawLike", {9.7, 3.9, 0.75, 0.79, 17.5, 21.6, 0.80, 0.77}},
    {"WaveRNNLike", {1.5, 2.8, 0.75, 0.65, 2.9, 322.9, 0.97, 0.70}},
    {"NMT", {3.1, 13.1, 0.86, 0.81, 9.8, 26.3, 0.94, 0.91}},
    {"SSDLike", {3.9, 7.3, 0.82, 0.77, 11.4, 55.9, 0.88, 0.76}},
    {"RNNLM", {8.0, 10.2, 0.64, 0.55, 1.9, 20.5, 0.97, 0.86}},
    {"ResNetV1", {2.8, 4.6, 0.85, 0.73, 3.1, 11.5, 0.95, 0.88}},
    {"ResNetV2", {2.7, 5.4, 0.87, 0.73, 2.4, 13.3, 0.96, 0.86}},
    {"TranslateLike", {3.4, 7.1, 0.93, 0.92, 2.1, 27.2, 0.92, 0.74}},
};

std::string FamilyOf(const Env& env, const std::string& program_name) {
  for (const auto& p : env.corpus) {
    if (p.name == program_name) return p.family;
  }
  return "?";
}

void RunTarget(Env& env, const sim::TpuSimulator& sim, const char* label) {
  analytical::AnalyticalModel analytical(sim.target());
  std::shared_ptr<data::StoredFeatures> tile_features, fusion_features;
  const auto tile = BuildTile(env, sim, analytical, &tile_features);
  auto fusion = BuildFusion(env, sim, analytical, &fusion_features);
  const auto& split = env.random_split;
  CalibrateAnalytical(analytical, fusion, split.test);

  std::printf("\n=== Target: %s ===\n", label);

  // ---- Tile-size task -------------------------------------------------------
  auto tile_model = TrainTile(core::ModelConfig::TileTaskDefault(), tile,
                              split.train, env.scale, tile_features.get());
  std::printf("tile model:   %s  (%ld steps, %.0fs, loss %.3f -> %.3f)\n",
              tile_model.model->config().Summary().c_str(),
              tile_model.stats.steps, tile_model.stats.wall_seconds,
              tile_model.stats.first_loss, tile_model.stats.final_loss);
  const auto tile_learned = core::EvaluateTileTask(
      tile, split.test, env.corpus,
      core::MakeLearnedTileScorer(*tile_model.model, *tile_model.cache));
  const auto tile_analytic = core::EvaluateTileTask(
      tile, split.test, env.corpus,
      core::MakeAnalyticalTileScorer(analytical));

  // ---- Fusion task ----------------------------------------------------------
  auto fusion_model =
      TrainFusion(core::ModelConfig::FusionTaskDefault(), fusion, split.train,
                  env.scale, fusion_features.get());
  std::printf("fusion model: %s  (%ld steps, %.0fs, loss %.3f -> %.3f)\n",
              fusion_model.model->config().Summary().c_str(),
              fusion_model.stats.steps, fusion_model.stats.wall_seconds,
              fusion_model.stats.first_loss, fusion_model.stats.final_loss);
  const auto fusion_learned = core::EvaluateFusionTask(
      fusion, split.test, env.corpus,
      core::MakeLearnedFusionEstimator(*fusion_model.model,
                                       *fusion_model.cache));
  const auto fusion_analytic = core::EvaluateFusionTask(
      fusion, split.test, env.corpus,
      core::MakeAnalyticalFusionEstimator(analytical));

  // ---- Table ----------------------------------------------------------------
  std::printf("\n%-16s | %-29s | %-29s\n", "", "Tile-Size task",
              "Fusion task (kernels >= 5us)");
  std::printf("%-16s | %6s %6s %6s %6s | %6s %6s %6s %6s\n", "Application",
              "APE-L", "APE-A", "tau-L", "tau-A", "MAPE-L", "MAPE-A", "tau-L",
              "tau-A");
  PrintRule();
  for (size_t i = 0; i < tile_learned.size(); ++i) {
    const std::string family = FamilyOf(env, tile_learned[i].application);
    std::printf("%-16s | %s %s %s %s | %s %s %s %s",
                tile_learned[i].application.c_str(),
                Num(tile_learned[i].ape).c_str(),
                Num(tile_analytic[i].ape).c_str(),
                Num(tile_learned[i].mean_kendall, 6, 2).c_str(),
                Num(tile_analytic[i].mean_kendall, 6, 2).c_str(),
                Num(fusion_learned[i].mape).c_str(),
                Num(fusion_analytic[i].mape).c_str(),
                Num(fusion_learned[i].kendall, 6, 2).c_str(),
                Num(fusion_analytic[i].kendall, 6, 2).c_str());
    const auto it = kPaper.find(family);
    if (it != kPaper.end()) {
      std::printf("  [paper: %.1f/%.1f %.2f/%.2f | %.1f/%.1f %.2f/%.2f]",
                  it->second.tile_ape_learned, it->second.tile_ape_analytical,
                  it->second.tile_tau_learned, it->second.tile_tau_analytical,
                  it->second.fusion_mape_learned,
                  it->second.fusion_mape_analytical,
                  it->second.fusion_tau_learned,
                  it->second.fusion_tau_analytical);
    }
    std::printf("\n");
  }
  PrintRule();
  const auto ta_l = core::AggregateApe(tile_learned);
  const auto ta_a = core::AggregateApe(tile_analytic);
  const auto tk_l = core::AggregateKendall(tile_learned);
  const auto tk_a = core::AggregateKendall(tile_analytic);
  const auto fm_l = core::AggregateMape(fusion_learned);
  const auto fm_a = core::AggregateMape(fusion_analytic);
  const auto fk_l = core::AggregateFusionKendall(fusion_learned);
  const auto fk_a = core::AggregateFusionKendall(fusion_analytic);
  std::printf("%-16s | %s %s %s %s | %s %s %s %s  [paper: 3.3/6.2 0.84/0.75 "
              "| 3.0/24.0 0.95/0.82]\n",
              "Median", Num(ta_l.median).c_str(), Num(ta_a.median).c_str(),
              Num(tk_l.median, 6, 2).c_str(), Num(tk_a.median, 6, 2).c_str(),
              Num(fm_l.median).c_str(), Num(fm_a.median).c_str(),
              Num(fk_l.median, 6, 2).c_str(), Num(fk_a.median, 6, 2).c_str());
  std::printf("%-16s | %s %s %s %s | %s %s %s %s  [paper: 3.7/6.1 0.80/0.74 "
              "| 4.5/31.1 0.92/0.80]\n",
              "Mean", Num(ta_l.mean).c_str(), Num(ta_a.mean).c_str(),
              Num(tk_l.mean, 6, 2).c_str(), Num(tk_a.mean, 6, 2).c_str(),
              Num(fm_l.mean).c_str(), Num(fm_a.mean).c_str(),
              Num(fk_l.mean, 6, 2).c_str(), Num(fk_a.mean, 6, 2).c_str());

  // §5.2: kernels < 5us follow the same trend.
  const auto small_learned = core::EvaluateFusionTask(
      fusion, split.test, env.corpus,
      core::MakeLearnedFusionEstimator(*fusion_model.model,
                                       *fusion_model.cache),
      /*min_runtime_sec=*/0.0);
  const auto small_analytic = core::EvaluateFusionTask(
      fusion, split.test, env.corpus,
      core::MakeAnalyticalFusionEstimator(analytical), /*min_runtime_sec=*/0.0);
  std::printf("\nAll kernels (incl. <5us): learned MAPE %.1f vs analytical "
              "%.1f  [paper: 5.0 vs 22.7]\n",
              core::AggregateMape(small_learned).mean,
              core::AggregateMape(small_analytic).mean);
}

}  // namespace
}  // namespace tpuperf::bench

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  PrintBanner(
      "Table 2 — main evaluation, random split",
      "Learned vs analytical model: Tile-Size APE + Kendall tau and fusion "
      "MAPE + Kendall tau per test application.");

  RunTarget(env, env.sim_v2, "TPU v2");
  // §5.1/§5.2: "TPU v3 results are similar" — learned 3.8% tile APE,
  // 4.9 MAPE / 0.92 tau on >=5us kernels.
  RunTarget(env, env.sim_v3, "TPU v3");

  // On a warm store, dataset builds AND all training/evaluation
  // featurization above must come from the cached records (featurizer
  // invocation count stays 0) — the report enforces it.
  return ReportDatasetStore(/*enforce_warm=*/true) ? 0 : 1;
}
