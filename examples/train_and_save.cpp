// End-to-end training workflow: generate a corpus slice, build the tile-size
// dataset (cached in the on-disk store when TPUPERF_DATASET_DIR is set —
// rerun the example to see the warm path skip generation and featurization
// entirely), train the learned cost model, evaluate it against the
// analytical baseline, and persist the trained model to disk for later use
// (the §7.1 "retrain or fine-tune with more data" deployment story).
//
//   $ ./build/examples/train_and_save [output.model]
//   $ TPUPERF_DATASET_DIR=/tmp/tpuperf_cache ./build/examples/train_and_save
#include <cstdio>
#include <cstdlib>

#include "core/evaluation.h"
#include "dataset/families.h"
#include "dataset/store.h"
#include "serve/snapshot.h"

using namespace tpuperf;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tpuperf_tile.model";

  const sim::TpuSimulator tpu(sim::TpuTarget::V2());
  const analytical::AnalyticalModel analytical(tpu.target());

  // A mixed corpus: train on variant 0-1 of each family, test on variant 2.
  std::vector<ir::Program> corpus;
  std::vector<int> train_ids, test_ids;
  for (const char* family :
       {"ResNetV1", "NMT", "RankingLike", "Char2FeatsLike"}) {
    for (int v = 0; v < 3; ++v) {
      if (v < 2) train_ids.push_back(static_cast<int>(corpus.size()));
      else test_ids.push_back(static_cast<int>(corpus.size()));
      corpus.push_back(data::BuildProgram(family, v));
    }
  }
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 24;
  const char* cache_env = std::getenv("TPUPERF_DATASET_DIR");
  const std::string cache_dir = cache_env == nullptr ? "" : cache_env;
  std::shared_ptr<data::StoredFeatures> features;
  data::StoreLoadStats store_stats;
  const auto dataset = data::LoadOrBuildTileDataset(
      cache_dir, corpus, tpu, options, &features, &store_stats);
  if (!cache_dir.empty()) {
    std::printf("dataset store: %s %s in %.3fs\n",
                store_stats.cache_hit ? "loaded" : "built and wrote",
                store_stats.path.c_str(), store_stats.seconds);
  }
  std::printf("dataset: %zu kernels, %zu samples (train %zu / test %zu "
              "programs)\n",
              dataset.kernels.size(), dataset.TotalSamples(),
              train_ids.size(), test_ids.size());

  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.train_steps = 2000;
  core::LearnedCostModel model(config);
  // The cached featurizations feed both PreparedCaches: on a warm store the
  // whole run never calls feat::FeaturizeKernel.
  core::PreparedCache cache(model, features.get());
  const auto stats = core::TrainTileTask(model, dataset, train_ids, cache);
  std::printf("trained %zu-parameter model in %.1fs (loss %.3f -> %.3f)\n",
              model.parameter_scalars(), stats.wall_seconds, stats.first_loss,
              stats.final_loss);

  const auto learned = core::EvaluateTileTask(
      dataset, test_ids, corpus, core::MakeLearnedTileScorer(model, cache));
  const auto baseline = core::EvaluateTileTask(
      dataset, test_ids, corpus, core::MakeAnalyticalTileScorer(analytical));
  std::printf("\n%-22s %10s %10s\n", "test program", "learned", "analytical");
  for (size_t i = 0; i < learned.size(); ++i) {
    std::printf("%-22s %9.2f%% %9.2f%%  (Tile-Size APE, lower is better)\n",
                learned[i].application.c_str(), learned[i].ape,
                baseline[i].ape);
  }

  // Persist and reload; predictions must survive the round trip. The
  // reload check also goes through a PreparedCache so a warm dataset store
  // serves its featurization too.
  serve::SaveModelSnapshot(path, model);
  const auto reloaded = serve::LoadModelSnapshot(path);
  core::PreparedCache reloaded_cache(*reloaded, features.get());
  const data::KernelRecord& record = dataset.kernels.front().record;
  const core::PreparedKernel& pk = reloaded_cache.Get(
      record.kernel.graph, record.fingerprint, record.signature);
  const double score =
      reloaded->PredictScore(pk, &dataset.kernels.front().configs.front());
  std::printf("\nmodel saved to %s and reloaded (sample prediction %.4f)\n",
              path.c_str(), score);
  return 0;
}
