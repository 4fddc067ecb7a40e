// Training loops for both tasks (paper §3.3, §4, §5).
//
// Both trainers draw examples evenly per model family to counter the
// dataset imbalance of §4 (ResNet variants have 300x more samples than
// AlexNet variants). The tile-size trainer builds rank-loss batches from
// tile configs of a single kernel; the fusion trainer builds MSE batches of
// kernels with log-transformed runtime targets.
#pragma once

#include <condition_variable>
#include <deque>
#include <set>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "dataset/datasets.h"
#include "dataset/streaming.h"

namespace tpuperf::core {

// Prepare() results cached by kernel fingerprint (duplicate kernels across
// and within programs share featurization). Entries are verified against a
// cheap structural signature of the graph, so two distinct kernels whose
// fingerprints collide each get their own prepared entry instead of silently
// sharing one.
//
// Concurrency-safe: Get() may be called from any number of pool workers
// (trainer minibatch featurization and the batched evaluators do). Hits take
// a shared lock; misses featurize OUTSIDE the lock. A miss first claims the
// (fingerprint, signature) pair in an in-flight set, so concurrent misses on
// the SAME kernel block for the one featurization instead of each computing
// and discarding their own, while distinct kernels still prepare fully in
// parallel. A claim is released on EVERY exit path — when the claimant's
// featurization throws (e.g. a throwing feature source), waiters wake, one
// re-claims and retries, and a deterministic error propagates to each caller
// instead of stranding them. Returned references stay valid for the cache's
// lifetime (entries live in per-fingerprint deques and are never erased).
// Misses first consult `features`, the kernel-feature source the cache was
// built with (a loaded dataset store, or none): when the raw features are
// cached there, Prepare runs from them and the kernel graph is never
// re-featurized — warm-store runs keep feat::FeaturizeKernelInvocations at
// zero.
class PreparedCache {
 public:
  explicit PreparedCache(const LearnedCostModel& model,
                         const feat::KernelFeatureSource* features = nullptr)
      : model_(model), features_(features) {}

  // The prepared kernel for `kernel`, keyed by its fingerprint and told
  // apart from colliding graphs by its structural signature. Callers pass
  // both hashes: a data::KernelRecord carries them, and
  // ir::Graph::FingerprintAndSignature computes them in one walk.
  const PreparedKernel& Get(const ir::Graph& kernel, std::uint64_t fingerprint,
                            std::uint64_t signature);

  // The raw-feature source consulted on miss (nullptr when none).
  const feat::KernelFeatureSource* feature_source() const noexcept {
    return features_;
  }

  // Total prepared entries (collision chains count each entry).
  std::size_t size() const;
  // Fingerprint collisions detected (distinct graphs, same fingerprint).
  std::size_t collisions() const;

 private:
  struct Entry {
    std::uint64_t structural_sig = 0;
    PreparedKernel prepared;
  };

  const LearnedCostModel& model_;
  const feat::KernelFeatureSource* features_ = nullptr;
  mutable std::shared_mutex mu_;
  std::condition_variable_any in_flight_done_;
  // (fingerprint, structural signature) pairs being featurized right now.
  std::set<std::pair<std::uint64_t, std::uint64_t>> in_flight_;
  // deque: appending to a collision chain must not invalidate references
  // returned by earlier Get() calls.
  std::unordered_map<std::uint64_t, std::deque<Entry>> cache_;
  std::size_t entries_ = 0;
  std::size_t collisions_ = 0;
};

struct TrainStats {
  long steps = 0;
  double first_loss = 0;
  double final_loss = 0;   // mean over the last eval window
  double wall_seconds = 0;
};

// Fits the model's feature scalers on the training slice of the tile-size
// dataset and trains with the configured rank (or ablation MSE) loss.
TrainStats TrainTileTask(LearnedCostModel& model,
                         const data::TileDataset& dataset,
                         std::span<const int> train_program_ids,
                         PreparedCache& cache);

// Fits scalers on the training slice of the fusion dataset and trains with
// squared error on log runtimes.
TrainStats TrainFusionTask(LearnedCostModel& model,
                           const data::FusionDataset& dataset,
                           std::span<const int> train_program_ids,
                           PreparedCache& cache);

// Out-of-core variants: train from a dataset::StreamingSampler instead of a
// materialized dataset, holding only the records of one shuffle window that
// the steps have drawn so far: a window decodes a record when a step first
// draws it, and the family grouping comes from the sampler's scan. All four
// trainers run one driver (trainer.cpp); the in-memory ones hand it the
// dataset as a stream of one canonical window. So with a single window
// (sampler window_records = 0, i.e. window >= corpus) the streaming trainers
// are the in-memory ones run over decoded records, and reproduce their
// losses and parameters bit for bit (tests/streaming_test.cpp). The driver's
// scaler pre-pass walks the windows in canonical order with the in-memory
// dedupe (fingerprint-only, in dataset order), so fitted scalers match too.
// Windows the split leaves without training records are skipped; a full
// epoch of them throws std::invalid_argument, as an empty in-memory split
// does, whatever train_steps is.
//
// `steps_per_window` <= 0 picks the default: all steps when the sampler has
// one window, otherwise ceil(train_steps / windows_per_epoch) so one pass
// over the data spreads the step budget across every window.
TrainStats TrainTileTaskStreaming(LearnedCostModel& model,
                                  data::StreamingSampler& sampler,
                                  std::span<const int> train_program_ids,
                                  PreparedCache& cache,
                                  int steps_per_window = 0);

TrainStats TrainFusionTaskStreaming(LearnedCostModel& model,
                                    data::StreamingSampler& sampler,
                                    std::span<const int> train_program_ids,
                                    PreparedCache& cache,
                                    int steps_per_window = 0);

}  // namespace tpuperf::core
