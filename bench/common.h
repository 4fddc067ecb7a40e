// Shared environment for the paper-reproduction benches: corpus, simulated
// TPUs, datasets, splits, trained models, and table-printing helpers.
//
// Every bench binary regenerates what it needs deterministically; the
// REPRO_SCALE environment variable (default 1.0, range (0, 64]) scales
// dataset budgets and training steps so the full suite can be run quickly
// (e.g. REPRO_SCALE=0.3) or more thoroughly (2.0). Scales above 1 also grow
// the program corpus itself (~REPRO_SCALE x variants per family, see
// data::CorpusOptions).
//
// When TPUPERF_DATASET_DIR is set, BuildTile/BuildFusion route through the
// on-disk dataset store (src/dataset/store.h): the first run builds and
// writes each dataset, later runs load it back — including every kernel's
// raw featurization, which BuildTile/BuildFusion hand back and
// TrainTile/TrainFusion give to the model's cache, so trainers and
// evaluators never call feat::FeaturizeKernel on a warm cache.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analytical/analytical_model.h"
#include "core/evaluation.h"
#include "dataset/datasets.h"
#include "dataset/families.h"
#include "dataset/store.h"
#include "sim/simulator.h"

namespace tpuperf::bench {

// REPRO_SCALE parsed strictly: the whole string must be a finite number in
// (0, 64]. Unset returns 1.0; anything else (trailing garbage, "inf",
// "nan", out of range) warns once on stderr and returns 1.0.
double ReproScale();

// TPUPERF_DATASET_DIR, or empty when unset (in-process generation).
std::string DatasetDir();

struct Env {
  std::vector<ir::Program> corpus;
  sim::TpuSimulator sim_v2{sim::TpuTarget::V2()};
  sim::TpuSimulator sim_v3{sim::TpuTarget::V3()};
  data::SplitSpec random_split;
  data::SplitSpec manual_split;
  data::DatasetOptions options;
  double scale = 1.0;
  std::string dataset_dir;  // empty => no store I/O
};

Env MakeEnv();

// Prints the dataset-store summary (per-build hit/miss and timings plus the
// featurizer invocation count). With `enforce_warm`, a run whose every
// build was a cache hit must never have invoked feat::FeaturizeKernel —
// returns false (and says why) when that warm-path guarantee is violated.
bool ReportDatasetStore(bool enforce_warm);

// Builds datasets on the given simulator (defaults target TPU v2).
// `features` (optional) receives the store's featurized kernels, or null
// when no dataset directory is set.
data::TileDataset BuildTile(
    const Env& env, const sim::TpuSimulator& sim,
    const analytical::AnalyticalModel& analytical,
    std::shared_ptr<data::StoredFeatures>* features = nullptr);
data::FusionDataset BuildFusion(
    const Env& env, const sim::TpuSimulator& sim,
    analytical::AnalyticalModel& analytical,
    std::shared_ptr<data::StoredFeatures>* features = nullptr);

// Calibrates the analytical model's fusion coefficients on the default-
// config kernels of the given programs (paper §5.2 uses the test set).
void CalibrateAnalytical(analytical::AnalyticalModel& analytical,
                         const data::FusionDataset& dataset,
                         std::span<const int> program_ids);

// Trains a model (steps scaled by REPRO_SCALE) and returns it with its
// prepared-kernel cache, which reads raw features from `features` (the
// dataset's store features from BuildTile/BuildFusion, or null). `features`
// must outlive the returned cache.
struct TrainedModel {
  std::unique_ptr<core::LearnedCostModel> model;
  std::unique_ptr<core::PreparedCache> cache;
  core::TrainStats stats;
};
TrainedModel TrainTile(core::ModelConfig config, const data::TileDataset& ds,
                       std::span<const int> train_ids, double scale,
                       const feat::KernelFeatureSource* features);
TrainedModel TrainFusion(core::ModelConfig config,
                         const data::FusionDataset& ds,
                         std::span<const int> train_ids, double scale,
                         const feat::KernelFeatureSource* features);

// ---- Output helpers --------------------------------------------------------
void PrintBanner(const std::string& title, const std::string& description);
void PrintRule();
// "12.3" / " n/a" fixed-width cell.
std::string Num(double v, int width = 6, int precision = 1);

}  // namespace tpuperf::bench
