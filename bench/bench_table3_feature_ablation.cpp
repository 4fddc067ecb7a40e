// Reproduces Table 3: graph-feature and loss-function ablations.
//
// All rows use GraphSAGE with the per-node reduction ("quick to train",
// §6.1); each row is a single change to the 'vanilla' configuration:
//   Vanilla                      — directed, no static-perf, tile as node feats, rank loss
//   Undirected                   — same feedforward for in/out edges
//   With static perf (as node features)   — the §5 configuration
//   With static perf (in kernel embedding)
//   Move tile-size (node feats to kernel emb)   [tile task only]
//   MSE loss (not rank)                          [tile task only]
//
// Expected shape (paper): edge direction and static-perf features matter for
// the fusion task, little for tile-size; tile-size belongs in node features
// (2.6% better); rank loss beats MSE by ~10.9% on the tile task.
#include <cstdio>
#include <optional>

#include "bench/common.h"

namespace tpuperf::bench {
namespace {

core::ModelConfig VanillaTile() {
  auto c = core::ModelConfig::TileTaskDefault();
  c.reduction = core::ReductionKind::kPerNode;
  c.use_static_perf = false;
  return c;
}

core::ModelConfig VanillaFusion() {
  auto c = core::ModelConfig::FusionTaskDefault();
  c.reduction = core::ReductionKind::kPerNode;
  c.use_static_perf = false;
  return c;
}

struct Row {
  const char* name;
  const char* paper;  // tile median/mean | fusion median/mean
  std::optional<core::ModelConfig> tile;
  std::optional<core::ModelConfig> fusion;
};

}  // namespace
}  // namespace tpuperf::bench

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  std::shared_ptr<data::StoredFeatures> tile_features, fusion_features;
  const auto tile = BuildTile(env, env.sim_v2, analytical, &tile_features);
  auto fusion = BuildFusion(env, env.sim_v2, analytical, &fusion_features);
  const auto& split = env.random_split;

  PrintBanner("Table 3 — graph features and loss function ablations",
              "Tile-Size APE (tile task) and MAPE (fusion task) on test "
              "programs; GraphSAGE + per-node reduction, one change per row.");

  std::vector<Row> rows;
  {
    Row r{"Vanilla", "[paper: 6.2/6.8 | 9.5/10.2]", VanillaTile(),
          VanillaFusion()};
    rows.push_back(r);
  }
  {
    Row r{"Undirected", "[paper: 7.2/6.8 | 11.0/14.0]", VanillaTile(),
          VanillaFusion()};
    r.tile->directed_edges = false;
    r.fusion->directed_edges = false;
    rows.push_back(r);
  }
  {
    Row r{"With static perf (as node features)",
          "[paper: 6.5/6.3 | 4.0/5.2]", VanillaTile(), VanillaFusion()};
    r.tile->use_static_perf = true;
    r.tile->static_perf_placement = core::FeaturePlacement::kNodeFeatures;
    r.fusion->use_static_perf = true;
    r.fusion->static_perf_placement = core::FeaturePlacement::kNodeFeatures;
    rows.push_back(r);
  }
  {
    Row r{"With static perf (in kernel embedding)",
          "[paper: 6.1/5.9 | 5.7/6.0]", VanillaTile(), VanillaFusion()};
    r.tile->use_static_perf = true;
    r.tile->static_perf_placement = core::FeaturePlacement::kKernelEmbedding;
    r.fusion->use_static_perf = true;
    r.fusion->static_perf_placement = core::FeaturePlacement::kKernelEmbedding;
    rows.push_back(r);
  }
  {
    Row r{"Move tile-size (node feats to kernel emb)",
          "[paper: 10.2/9.4 | N/A]", VanillaTile(), std::nullopt};
    r.tile->tile_placement = core::FeaturePlacement::kKernelEmbedding;
    rows.push_back(r);
  }
  {
    Row r{"MSE loss (not rank)", "[paper: 16.7/17.7 | N/A]", VanillaTile(),
          std::nullopt};
    r.tile->loss = core::LossKind::kMse;
    rows.push_back(r);
  }

  std::printf("%-44s | %13s | %13s\n", "", "Tile-Size APE", "Fusion MAPE");
  std::printf("%-44s | %6s %6s | %6s %6s\n", "Variant", "Median", "Mean",
              "Median", "Mean");
  PrintRule();
  for (const Row& row : rows) {
    std::string tile_med = "   N/A", tile_mean = "   N/A";
    std::string fus_med = "   N/A", fus_mean = "   N/A";
    if (row.tile.has_value()) {
      auto trained = TrainTile(*row.tile, tile, split.train, env.scale,
                               tile_features.get());
      const auto results = core::EvaluateTileTask(
          tile, split.test, env.corpus,
          core::MakeLearnedTileScorer(*trained.model, *trained.cache));
      const auto agg = core::AggregateApe(results);
      tile_med = Num(agg.median);
      tile_mean = Num(agg.mean);
    }
    if (row.fusion.has_value()) {
      auto trained = TrainFusion(*row.fusion, fusion, split.train, env.scale,
                                 fusion_features.get());
      const auto results = core::EvaluateFusionTask(
          fusion, split.test, env.corpus,
          core::MakeLearnedFusionEstimator(*trained.model, *trained.cache));
      const auto agg = core::AggregateMape(results);
      fus_med = Num(agg.median);
      fus_mean = Num(agg.mean);
    }
    std::printf("%-44s | %s %s | %s %s  %s\n", row.name, tile_med.c_str(),
                tile_mean.c_str(), fus_med.c_str(), fus_mean.c_str(),
                row.paper);
    std::fflush(stdout);
  }
  return 0;
}
