#include "core/evaluation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "eval/metrics.h"

namespace tpuperf::core {

std::vector<TileTaskResult> EvaluateTileTask(
    const data::TileDataset& dataset, std::span<const int> program_ids,
    std::span<const ir::Program> corpus, const TileScorer& scorer) {
  std::vector<TileTaskResult> results;
  for (const int pid : program_ids) {
    TileTaskResult result;
    result.application = corpus[static_cast<size_t>(pid)].name;

    std::vector<eval::KernelTileRuntimes> per_kernel;
    std::vector<double> kendalls;
    for (const auto& kdata : dataset.kernels) {
      if (kdata.record.program_id != pid) continue;
      if (kdata.configs.size() < 2) continue;

      std::vector<double> scores(kdata.configs.size());
      for (size_t c = 0; c < kdata.configs.size(); ++c) {
        scores[c] = scorer(kdata, static_cast<int>(c));
      }
      const size_t chosen = static_cast<size_t>(
          std::min_element(scores.begin(), scores.end()) - scores.begin());
      const double best =
          *std::min_element(kdata.runtimes.begin(), kdata.runtimes.end());
      per_kernel.push_back(
          eval::KernelTileRuntimes{kdata.runtimes[chosen], best});
      kendalls.push_back(eval::KendallTau(scores, kdata.runtimes));
    }
    result.kernels = static_cast<int>(per_kernel.size());
    result.ape = eval::TileSizeApe(per_kernel);
    result.mean_kendall = eval::Mean(kendalls);
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<FusionTaskResult> EvaluateFusionTask(
    const data::FusionDataset& dataset, std::span<const int> program_ids,
    std::span<const ir::Program> corpus, const FusionEstimator& estimator,
    double min_runtime_sec) {
  std::vector<FusionTaskResult> results;
  for (const int pid : program_ids) {
    FusionTaskResult result;
    result.application = corpus[static_cast<size_t>(pid)].name;

    std::vector<double> predictions;
    std::vector<double> targets;
    for (const auto& sample : dataset.samples) {
      if (sample.record.program_id != pid) continue;
      if (sample.runtime < min_runtime_sec) continue;
      const auto estimate = estimator(sample);
      if (!estimate.has_value()) continue;
      predictions.push_back(*estimate);
      targets.push_back(sample.runtime);
    }
    result.kernels = static_cast<int>(predictions.size());
    result.mape = eval::Mape(predictions, targets);
    result.kendall = eval::KendallTau(predictions, targets);
    results.push_back(std::move(result));
  }
  return results;
}

TileScorer MakeLearnedTileScorer(const LearnedCostModel& model,
                                 PreparedCache& cache) {
  return [&model, &cache](const data::TileKernelData& kernel,
                          int config_index) {
    const data::KernelRecord& record = kernel.record;
    const PreparedKernel& pk = cache.Get(record.kernel.graph,
                                         record.fingerprint, record.signature);
    return model.PredictScore(
        pk, &kernel.configs[static_cast<size_t>(config_index)]);
  };
}

TileScorer MakeAnalyticalTileScorer(
    const analytical::AnalyticalModel& analytical) {
  return [&analytical](const data::TileKernelData& kernel, int config_index) {
    return analytical.EstimateRuntime(
        kernel.record.kernel.graph,
        kernel.configs[static_cast<size_t>(config_index)]);
  };
}

FusionEstimator MakeLearnedFusionEstimator(const LearnedCostModel& model,
                                           PreparedCache& cache,
                                           bool skip_unsupported_kinds) {
  return [&model, &cache,
          skip_unsupported_kinds](const data::FusionSample& sample)
             -> std::optional<double> {
    if (skip_unsupported_kinds &&
        sample.record.kernel.kind == ir::KernelKind::kDataFormatting) {
      return std::nullopt;
    }
    const data::KernelRecord& record = sample.record;
    const PreparedKernel& pk = cache.Get(record.kernel.graph,
                                         record.fingerprint, record.signature);
    const ir::TileConfig* tile =
        model.config().use_tile_features ? &sample.tile : nullptr;
    return model.PredictSeconds(pk, tile);
  };
}

FusionEstimator MakeAnalyticalFusionEstimator(
    const analytical::AnalyticalModel& analytical) {
  return [&analytical](const data::FusionSample& sample)
             -> std::optional<double> {
    return analytical.EstimateAbsoluteRuntime(sample.record.kernel.graph,
                                              sample.tile);
  };
}

namespace {

template <typename T, typename Get>
Aggregate AggregateBy(std::span<const T> results, Get get) {
  std::vector<double> values;
  values.reserve(results.size());
  for (const T& r : results) values.push_back(get(r));
  Aggregate agg;
  agg.mean = eval::Mean(values);
  agg.median = eval::Median(values);
  agg.stddev = eval::StdDev(values);
  return agg;
}

}  // namespace

Aggregate AggregateApe(std::span<const TileTaskResult> results) {
  return AggregateBy(results, [](const TileTaskResult& r) { return r.ape; });
}

Aggregate AggregateKendall(std::span<const TileTaskResult> results) {
  return AggregateBy(results,
                     [](const TileTaskResult& r) { return r.mean_kendall; });
}

Aggregate AggregateMape(std::span<const FusionTaskResult> results) {
  return AggregateBy(results, [](const FusionTaskResult& r) { return r.mape; });
}

Aggregate AggregateFusionKendall(std::span<const FusionTaskResult> results) {
  return AggregateBy(results,
                     [](const FusionTaskResult& r) { return r.kendall; });
}

}  // namespace tpuperf::core
