#include "bench/common.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/trainer.h"
#include "features/featurizer.h"

namespace tpuperf::bench {
namespace {

// One dataset build/load that went through the store layer.
struct StoreBuildInfo {
  std::string task;    // "tile" | "fusion"
  std::string target;  // e.g. "TPUv2"
  bool cache_hit = false;
  double seconds = 0;
  std::string path;  // empty when no cache dir was configured
};

std::vector<StoreBuildInfo>& StoreBuilds() {
  static std::vector<StoreBuildInfo> builds;
  return builds;
}

void NoteStoreBuild(const char* task, const std::string& target,
                    const data::StoreLoadStats& stats) {
  StoreBuilds().push_back(
      {task, target, stats.cache_hit, stats.seconds, stats.path});
  if (stats.path.empty()) {
    std::printf("[dataset store] %s/%s: no TPUPERF_DATASET_DIR, built "
                "in-process (%.2fs)\n",
                task, target.c_str(), stats.seconds);
  } else if (stats.cache_hit) {
    std::printf("[dataset store] %s/%s: warm hit, loaded %s in %.3fs\n", task,
                target.c_str(), stats.path.c_str(), stats.seconds);
  } else {
    std::printf("[dataset store] %s/%s: cold miss, built and wrote %s in "
                "%.2fs\n",
                task, target.c_str(), stats.path.c_str(), stats.seconds);
  }
}

}  // namespace

double ReproScale() {
  constexpr double kMaxScale = 64.0;
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return 1.0;
  const std::string_view text(env);
  double v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  // NaN fails both comparisons and infinity fails the upper bound.
  if (ec == std::errc() && end == text.data() + text.size() && v > 0 &&
      v <= kMaxScale) {
    return v;
  }
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "[tpuperf] warning: ignoring REPRO_SCALE=\"%s\" (not a "
                 "number in (0, %g]); using 1\n",
                 env, kMaxScale);
  }
  return 1.0;
}

std::string DatasetDir() {
  const char* env = std::getenv("TPUPERF_DATASET_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

Env MakeEnv() {
  Env env;
  env.scale = ReproScale();
  env.dataset_dir = DatasetDir();
  env.options.max_tile_configs_per_kernel = 32;
  env.options.fusion_configs_per_program = 10;
  env.options.ApplyScale(env.scale);
  // Scales above 1 also grow the corpus (~scale x variants per family);
  // below 1 only the per-program budgets shrink — the split methods need
  // every family present. The corpus parameters ALSO go into
  // env.options so the dataset-store cache key covers them: two runs at
  // different REPRO_SCALE generate different corpora and must never share
  // a cached store (they used to — the tier-extension seed and scale were
  // not hashed).
  env.options.corpus_scale = std::max(1.0, env.scale);
  env.options.corpus_seed = env.options.seed;
  env.corpus = data::GenerateCorpus(
      {.scale = env.options.corpus_scale, .seed = env.options.corpus_seed});
  env.random_split = data::RandomSplit(env.corpus, /*seed=*/1234);
  env.manual_split = data::ManualSplit(env.corpus);
  return env;
}

data::TileDataset BuildTile(const Env& env, const sim::TpuSimulator& sim,
                            const analytical::AnalyticalModel& analytical,
                            std::shared_ptr<data::StoredFeatures>* features) {
  (void)analytical;
  data::StoreLoadStats stats;
  auto dataset = data::LoadOrBuildTileDataset(
      env.dataset_dir, env.corpus, sim, env.options, features, &stats);
  NoteStoreBuild("tile", sim.target().name, stats);
  return dataset;
}

data::FusionDataset BuildFusion(
    const Env& env, const sim::TpuSimulator& sim,
    analytical::AnalyticalModel& analytical,
    std::shared_ptr<data::StoredFeatures>* features) {
  data::StoreLoadStats stats;
  auto dataset = data::LoadOrBuildFusionDataset(env.dataset_dir, env.corpus,
                                                sim, analytical, env.options,
                                                features, &stats);
  NoteStoreBuild("fusion", sim.target().name, stats);
  return dataset;
}

bool ReportDatasetStore(bool enforce_warm) {
  const auto& builds = StoreBuilds();
  if (builds.empty()) return true;
  double total = 0;
  bool all_hit = true;
  std::printf("\nDataset store summary:\n");
  for (const auto& b : builds) {
    total += b.seconds;
    all_hit = all_hit && b.cache_hit;
    std::printf("  %-6s %-6s %-4s %8.3fs  %s\n", b.task.c_str(),
                b.target.c_str(), b.cache_hit ? "warm" : "cold", b.seconds,
                b.path.empty() ? "(in-process)" : b.path.c_str());
  }
  const long invocations = feat::FeaturizeKernelInvocations();
  std::printf("  dataset-ready in %.3fs total (%s); featurizer invoked %ld "
              "times this process\n",
              total, all_hit ? "all warm" : "cold or mixed", invocations);
  if (enforce_warm && all_hit && invocations > 0) {
    std::printf("  ERROR: warm-cache run re-featurized %ld kernels — the "
                "store read path is broken\n",
                invocations);
    return false;
  }
  return true;
}

void CalibrateAnalytical(analytical::AnalyticalModel& analytical,
                         const data::FusionDataset& dataset,
                         std::span<const int> program_ids) {
  std::vector<analytical::AnalyticalModel::CalibrationSample> samples;
  for (const int pid : program_ids) {
    for (const auto& s : dataset.samples) {
      if (s.record.program_id != pid || !s.from_default_config) continue;
      samples.push_back({&s.record.kernel.graph, s.tile, s.runtime});
    }
  }
  analytical.CalibrateFusionCoefficients(samples);
}

TrainedModel TrainTile(core::ModelConfig config, const data::TileDataset& ds,
                       std::span<const int> train_ids, double scale,
                       const feat::KernelFeatureSource* features) {
  config.train_steps =
      std::max(200, static_cast<int>(config.train_steps * scale));
  TrainedModel out;
  out.model = std::make_unique<core::LearnedCostModel>(config);
  out.cache = std::make_unique<core::PreparedCache>(*out.model, features);
  out.stats = core::TrainTileTask(*out.model, ds, train_ids, *out.cache);
  return out;
}

TrainedModel TrainFusion(core::ModelConfig config,
                         const data::FusionDataset& ds,
                         std::span<const int> train_ids, double scale,
                         const feat::KernelFeatureSource* features) {
  config.train_steps =
      std::max(200, static_cast<int>(config.train_steps * scale));
  TrainedModel out;
  out.model = std::make_unique<core::LearnedCostModel>(config);
  out.cache = std::make_unique<core::PreparedCache>(*out.model, features);
  out.stats = core::TrainFusionTask(*out.model, ds, train_ids, *out.cache);
  return out;
}

void PrintBanner(const std::string& title, const std::string& description) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title.c_str());
  if (!description.empty()) std::printf("%s\n", description.c_str());
  std::printf("(REPRO_SCALE=%.2f; paper reference values in brackets)\n",
              ReproScale());
  PrintRule();
}

void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

std::string Num(double v, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

}  // namespace tpuperf::bench
