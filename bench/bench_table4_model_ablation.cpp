// Reproduces Table 4: the neural-architecture grid — {No GNN, GraphSAGE,
// GAT} x {per-node, column-wise, LSTM, Transformer} on both tasks, with the
// best feature settings from Table 3 (directed edges, static perf and tile
// size as node features). Reports mean error with the std-dev across test
// applications in parentheses.
//
// Expected shape (paper):
//   Q1  GraphSAGE+column-wise beats LSTM/Transformer-without-GNN on tile;
//   Q2  GNN+LSTM / GNN+Transformer are the best overall;
//   Q3  GraphSAGE consistently beats GAT; per-node is high-variance on the
//       fusion task.
#include <cstdio>

#include "bench/common.h"

namespace {

// Paper values: mean (stddev) per cell, tile | fusion.
const char* PaperCell(int gnn, int red, bool fusion) {
  static const char* tile[3][4] = {
      {"10.7 (5.3)", "9.3 (3.3)", "7.1 (3.7)", "10.8 (7.4)"},
      {"6.0 (3.8)", "6.9 (3.0)", "3.7 (2.8)", "4.6 (2.6)"},
      {"9.2 (6.4)", "8.4 (4.2)", "7.7 (4.2)", "8.2 (3.8)"}};
  static const char* fus[3][4] = {
      {"16.6 (132.7)", "6.6 (9.1)", "3.9 (7.5)", "7.3 (10.1)"},
      {"7.3 (34.6)", "5.1 (3.6)", "5.0 (4.3)", "4.5 (5.8)"},
      {"15.1 (4.0)", "8.5 (3.8)", "7.4 (4.5)", "14.6 (11.3)"}};
  return fusion ? fus[gnn][red] : tile[gnn][red];
}

}  // namespace

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  std::shared_ptr<data::StoredFeatures> tile_features, fusion_features;
  const auto tile = BuildTile(env, env.sim_v2, analytical, &tile_features);
  auto fusion = BuildFusion(env, env.sim_v2, analytical, &fusion_features);
  const auto& split = env.random_split;

  PrintBanner("Table 4 — model architecture ablation",
              "Mean test error (stddev across applications): rows = node "
              "reduction, columns = GNN. Tile-Size APE / fusion MAPE.");

  const core::GnnKind gnns[] = {core::GnnKind::kNone, core::GnnKind::kGraphSage,
                                core::GnnKind::kGat};
  const core::ReductionKind reductions[] = {
      core::ReductionKind::kPerNode, core::ReductionKind::kColumnWise,
      core::ReductionKind::kLstm, core::ReductionKind::kTransformer};

  for (const bool fusion_task : {false, true}) {
    std::printf("\n--- %s dataset ---\n",
                fusion_task ? "Fusion" : "Tile-Size");
    std::printf("%-12s | %-22s %-22s %-22s\n", "Reduction", "No GNN",
                "GraphSAGE", "GAT");
    PrintRule();
    for (int r = 0; r < 4; ++r) {
      std::printf("%-12s |", std::string(ToString(reductions[r])).c_str());
      std::fflush(stdout);
      for (int g = 0; g < 3; ++g) {
        core::ModelConfig config = fusion_task
                                       ? core::ModelConfig::FusionTaskDefault()
                                       : core::ModelConfig::TileTaskDefault();
        config.gnn = gnns[g];
        config.reduction = reductions[r];
        // GAT trains best with a lower learning rate (paper §6.2 Q3 noted
        // strong hyperparameter sensitivity; Tables 6-7 use 1e-5 to 6e-6).
        if (config.gnn == core::GnnKind::kGat) {
          config.learning_rate *= 0.25;
        }
        double mean = 0, stddev = 0;
        if (fusion_task) {
          auto trained = TrainFusion(config, fusion, split.train, env.scale,
                                     fusion_features.get());
          const auto results = core::EvaluateFusionTask(
              fusion, split.test, env.corpus,
              core::MakeLearnedFusionEstimator(*trained.model,
                                               *trained.cache));
          const auto agg = core::AggregateMape(results);
          mean = agg.mean;
          stddev = agg.stddev;
        } else {
          auto trained = TrainTile(config, tile, split.train, env.scale,
                                   tile_features.get());
          const auto results = core::EvaluateTileTask(
              tile, split.test, env.corpus,
              core::MakeLearnedTileScorer(*trained.model, *trained.cache));
          const auto agg = core::AggregateApe(results);
          mean = agg.mean;
          stddev = agg.stddev;
        }
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%.1f (%.1f) [%s]", mean, stddev,
                      PaperCell(g, r, fusion_task));
        std::printf(" %-28s", cell);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nBold in the paper: GraphSAGE+LSTM (tile, 3.7) and "
      "GraphSAGE+Transformer (fusion, 4.5) — the §5 models.\n");
  return 0;
}
