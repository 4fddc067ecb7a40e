#include "autotuner/evaluators.h"

#include <algorithm>

#include "sim/hash.h"

namespace tpuperf::tune {
namespace {

std::uint64_t KernelTileKey(const ir::Graph& kernel,
                            const ir::TileConfig& tile) {
  std::uint64_t h = kernel.Fingerprint();
  for (const auto d : tile.dims) {
    h = sim::HashCombine(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

}  // namespace

std::vector<std::optional<double>> CostEvaluator::EstimateBatch(
    std::span<const KernelTileRef> items) {
  std::vector<std::optional<double>> out;
  out.reserve(items.size());
  for (const KernelTileRef& item : items) {
    out.push_back(EstimateKernel(*item.kernel, *item.tile));
  }
  return out;
}

std::optional<double> HardwareEvaluator::EstimateKernel(
    const ir::Graph& kernel, const ir::TileConfig& tile) {
  const std::uint64_t fp = kernel.Fingerprint();
  if (compiled_.emplace(fp, true).second) spent_ += costs_.compile_sec;

  const std::uint64_t key = KernelTileKey(kernel, tile);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  spent_ += costs_.run_sec;
  ++measurements_;
  const double runtime = simulator_.Measure(kernel, tile);
  cache_.emplace(key, runtime);
  return runtime;
}

std::optional<double> LearnedEvaluator::EstimateKernel(
    const ir::Graph& kernel, const ir::TileConfig& tile) {
  const KernelTileRef item{&kernel, &tile};
  return EstimateBatch(std::span(&item, 1)).front();
}

std::vector<std::optional<double>> LearnedEvaluator::EstimateBatch(
    std::span<const KernelTileRef> items) {
  std::vector<std::optional<double>> out(items.size());

  // Resolve memo hits first; collect the misses for packed inference.
  // Duplicate (kernel, tile) queries within one call (fusion configs repeat
  // kernels) are collapsed to a single prediction and fanned back out.
  std::vector<size_t> pending;
  std::vector<std::uint64_t> keys(items.size());
  std::unordered_map<std::uint64_t, size_t> in_flight;
  pending.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    keys[i] = KernelTileKey(*items[i].kernel, *items[i].tile);
    const auto it = memo_.find(keys[i]);
    if (it != memo_.end()) {
      out[i] = it->second;
    } else if (in_flight.emplace(keys[i], i).second) {
      pending.push_back(i);
    }
  }

  const bool use_tiles = model_.config().use_tile_features;
  // The candidate pool splits into fixed kMaxBatch sub-batches, each
  // scored by one packed forward pass, memoized and charged.
  for (size_t begin = 0; begin < pending.size(); begin += kMaxBatch) {
    const size_t end = std::min(pending.size(), begin + kMaxBatch);
    std::vector<core::BatchItem> batch_items;
    batch_items.reserve(end - begin);
    for (size_t p = begin; p < end; ++p) {
      const KernelTileRef& item = items[pending[p]];
      const ir::Graph::Hashes hashes = item.kernel->FingerprintAndSignature();
      const core::PreparedKernel& pk =
          cache_.Get(*item.kernel, hashes.fingerprint, hashes.signature);
      batch_items.push_back({&pk, use_tiles ? item.tile : nullptr});
    }
    const core::PreparedBatch batch = model_.PrepareBatch(batch_items);
    const std::vector<double> seconds = model_.PredictBatchSeconds(batch);
    for (size_t p = begin; p < end; ++p) {
      out[pending[p]] = seconds[p - begin];
      memo_.emplace(keys[pending[p]], seconds[p - begin]);
    }
    // Packed inference amortizes per-graph overhead, but only across the
    // queries actually packed together: charge one full sequential cost for
    // the chunk plus a quarter for each additional query. A chunk of 1 pays
    // the sequential price; a chunk of 32 pays ~8.75x (a >=3.5x batch-32
    // amortization).
    spent_ += inference_sec_ * (0.75 + 0.25 * static_cast<double>(end - begin));
  }
  // Fan the deduplicated predictions out to any duplicate queries.
  for (size_t i = 0; i < items.size(); ++i) {
    if (!out[i].has_value()) {
      const auto it = memo_.find(keys[i]);
      if (it != memo_.end()) out[i] = it->second;
    }
  }
  return out;
}

std::optional<double> AnalyticalEvaluator::EstimateKernel(
    const ir::Graph& kernel, const ir::TileConfig& tile) {
  spent_ += 1e-6;
  const auto estimate = model_.EstimateAbsoluteRuntime(kernel, tile);
  if (!estimate.has_value()) return std::nullopt;
  return estimate;
}

}  // namespace tpuperf::tune
