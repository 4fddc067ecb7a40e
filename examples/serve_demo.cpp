// Train -> snapshot -> serve: the deployment round trip for the serving
// engine. A small tile-size model is trained in-process, persisted as ONE
// model-snapshot file (trained parameters + fitted feature scalers +
// ModelConfig, serve::SaveModelSnapshot), and a serve::PredictionService is
// then constructed from nothing but that file — the way a production
// autotuner host would come up. Concurrent clients fire predictions at the
// service and every served score is checked bit-identical against the
// in-memory model it was snapshotted from.
//
//   $ ./build/serve_demo [snapshot.tpms]
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "dataset/datasets.h"
#include "dataset/families.h"
#include "serve/prediction_service.h"
#include "serve/snapshot.h"
#include "sim/simulator.h"

using namespace tpuperf;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tpuperf_serve_demo.tpms";

  // ---- Train a small model -------------------------------------------------
  const sim::TpuSimulator tpu(sim::TpuTarget::V2());
  std::vector<ir::Program> corpus;
  std::vector<int> train_ids;
  for (const char* family : {"ResNetV1", "NMT"}) {
    for (int v = 0; v < 2; ++v) {
      train_ids.push_back(static_cast<int>(corpus.size()));
      corpus.push_back(data::BuildProgram(family, v));
    }
  }
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 8;
  const auto dataset = data::BuildTileDataset(corpus, tpu, options);
  std::printf("dataset: %zu kernels, %zu samples\n", dataset.kernels.size(),
              dataset.TotalSamples());

  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 32;
  config.opcode_embedding_dim = 16;
  config.train_steps = 200;
  auto model = std::make_unique<core::LearnedCostModel>(config);
  core::PreparedCache train_cache(*model);
  const auto stats =
      core::TrainTileTask(*model, dataset, train_ids, train_cache);
  std::printf("trained %zu-parameter model in %.1fs (loss %.3f -> %.3f)\n",
              model->parameter_scalars(), stats.wall_seconds, stats.first_loss,
              stats.final_loss);

  // ---- Snapshot ------------------------------------------------------------
  serve::SaveModelSnapshot(path, *model);
  std::printf("snapshot written to %s\n", path.c_str());

  // ---- Serve from the snapshot file ---------------------------------------
  serve::PredictionService service(path, serve::ServiceConfig{});
  std::printf("service up: max_batch=%d deadline_us=%ld\n",
              service.config().max_batch, service.config().deadline_us);

  // Concurrent clients; every served score must equal the in-memory model's
  // PredictScore exactly (the service's batching contract). The tile task
  // scores (kernel, tile) pairs, so each query carries one of the kernel's
  // dataset tile configs.
  std::vector<const ir::Graph*> kernels;
  std::vector<ir::TileConfig> tiles;
  for (const auto& k : dataset.kernels) {
    if (k.configs.empty()) continue;
    kernels.push_back(&k.record.kernel.graph);
    tiles.push_back(k.configs.front());
    if (kernels.size() >= 32) break;
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < kernels.size(); i += 4) {
        const double served = service.Predict(*kernels[i], &tiles[i]);
        const double direct =
            model->PredictScore(model->Prepare(*kernels[i]), &tiles[i]);
        if (served != direct) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  const serve::ServiceStats final_stats = service.stats();
  std::printf("served %llu requests in %llu batches (mean batch %.1f)\n",
              static_cast<unsigned long long>(final_stats.completed),
              static_cast<unsigned long long>(final_stats.batches),
              final_stats.mean_batch_size());
  if (mismatches.load() != 0) {
    std::printf("FAILED: %d served scores diverged from PredictScore\n",
                mismatches.load());
    return 1;
  }
  std::printf("all served scores bit-identical to the snapshotted model\n");
  return 0;
}
