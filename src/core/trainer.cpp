#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <unordered_set>

#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace tpuperf::core {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Family name -> indices of the training records, for balanced sampling.
// `family(i)` and `program_id(i)` describe record i of `count`.
template <typename Family, typename ProgramId>
std::vector<std::vector<int>> GroupByFamily(std::size_t count, Family family,
                                            ProgramId program_id,
                                            std::span<const int> keep) {
  std::unordered_set<int> wanted(keep.begin(), keep.end());
  std::map<std::string, std::vector<int>> groups;
  for (std::size_t i = 0; i < count; ++i) {
    if (!wanted.contains(program_id(i))) continue;
    groups[family(i)].push_back(static_cast<int>(i));
  }
  std::vector<std::vector<int>> out;
  out.reserve(groups.size());
  for (auto& [family, indices] : groups) out.push_back(std::move(indices));
  return out;
}

nn::RankSurrogate Surrogate(LossKind loss) {
  return loss == LossKind::kRankLogistic ? nn::RankSurrogate::kLogistic
                                         : nn::RankSurrogate::kHinge;
}

nn::AdamConfig MakeAdamConfig(const ModelConfig& c) {
  nn::AdamConfig a;
  a.learning_rate = c.learning_rate;
  a.lr_decay = c.lr_decay;
  a.clip = c.grad_clip;
  a.clip_norm = c.grad_clip_norm;
  return a;
}

// Observes one kernel's node features for scaler fitting, preferring the
// cached raw features of the dataset store (no FeaturizeKernel call) when
// the source holds them. The observed rows are identical either way.
void FitNodeScalerVia(LearnedCostModel& model,
                      const feat::KernelFeatureSource* source,
                      const ir::Graph& kernel, std::uint64_t fingerprint) {
  if (source != nullptr) {
    if (const std::optional<feat::KernelFeatures> cached =
            source->Lookup(fingerprint, kernel.StructuralSignature())) {
      model.FitNodeScaler(*cached);
      return;
    }
  }
  model.FitNodeScaler(kernel);
}

}  // namespace

const PreparedKernel& PreparedCache::Get(const ir::Graph& kernel,
                                         std::uint64_t fingerprint,
                                         std::uint64_t sig) {
  const auto find_entry = [&]() -> const PreparedKernel* {
    const auto it = cache_.find(fingerprint);
    if (it == cache_.end()) return nullptr;
    for (const Entry& entry : it->second) {
      if (entry.structural_sig == sig) return &entry.prepared;
    }
    return nullptr;
  };
  {
    std::shared_lock lock(mu_);
    if (const PreparedKernel* hit = find_entry()) return *hit;
  }
  // Miss: claim the kernel, then featurize outside any lock (the expensive
  // part — and the point of calling Get from pool workers). Concurrent
  // misses on the same kernel wait for the claimant instead of redoing the
  // featurization; distinct kernels prepare fully in parallel.
  //
  // The claim MUST be released on every exit path — a claim that leaks when
  // the claimant's featurization throws (a throwing feature source, a
  // Prepare failure, even bad_alloc inserting the entry) would strand every
  // waiter on in_flight_done_ forever. The guard below releases and wakes
  // waiters during unwind; woken waiters re-check the cache and the first
  // one re-claims, so they retry the featurization (and observe the same
  // error themselves if it is deterministic) instead of deadlocking.
  const std::pair<std::uint64_t, std::uint64_t> key{fingerprint, sig};
  std::unique_lock lock(mu_);
  for (;;) {
    if (const PreparedKernel* hit = find_entry()) return *hit;
    if (in_flight_.insert(key).second) break;  // ours to prepare
    in_flight_done_.wait(lock);
  }
  struct ClaimGuard {
    PreparedCache* cache;
    const std::pair<std::uint64_t, std::uint64_t>& claim;
    bool locked;  // whether the owner currently holds cache->mu_
    ~ClaimGuard() {
      std::unique_lock relock(cache->mu_, std::defer_lock);
      if (!locked) relock.lock();
      cache->in_flight_.erase(claim);
      cache->in_flight_done_.notify_all();
    }
  };
  ClaimGuard guard{this, key, /*locked=*/false};
  lock.unlock();
  // Models a throwing featurization (the hazard the guard above exists
  // for); placed after the claim so injection exercises the release path.
  MaybeInjectFault("featurize.throw");
  const std::optional<feat::KernelFeatures> cached =
      features_ != nullptr ? features_->Lookup(fingerprint, sig) : std::nullopt;
  PreparedKernel prepared =
      cached ? model_.Prepare(*cached) : model_.Prepare(kernel);
  lock.lock();
  guard.locked = true;
  std::deque<Entry>& chain = cache_[fingerprint];
  if (!chain.empty()) ++collisions_;
  chain.push_back(Entry{sig, std::move(prepared)});
  ++entries_;
  return chain.back().prepared;
}

std::size_t PreparedCache::size() const {
  std::shared_lock lock(mu_);
  return entries_;
}

std::size_t PreparedCache::collisions() const {
  std::shared_lock lock(mu_);
  return collisions_;
}

namespace {

// ---- Shared step loops ------------------------------------------------------
//
// One loop struct per task holds everything that must persist ACROSS shuffle
// windows — the RNG, the Adam state, the global step counter, the loss
// window — so the in-memory trainers (one RunSteps call over the whole
// dataset) and the streaming trainers (one RunSteps call per window) execute
// the SAME step code on the same state. That sharing is what makes streaming
// losses bit-identical to in-memory losses when the sampler serves a single
// canonical window.
//
// RunSteps reads records through a RecordAt accessor: index i of the family
// grouping -> the record. A dataset vector returns its element; a streaming
// window decodes the record the first time a step draws it, so a window
// decodes only the records its steps use.

template <typename Record>
using RecordAt = std::function<const Record&(std::size_t)>;

struct TileTrainLoop {
  LearnedCostModel& model;
  const ModelConfig& cfg;
  PreparedCache& cache;
  std::mt19937_64 rng;
  nn::Adam adam;
  std::vector<nn::Parameter*> params;
  // One arena-backed tape for the whole run: Clear() recycles every node's
  // value/grad buffer (and the node shells) into the arena, so steady-state
  // steps run with (near) zero tape heap allocations instead of rebuilding
  // the whole tape from malloc each minibatch.
  nn::TapeArena arena;
  nn::Tape tape{&arena};
  TrainStats stats;
  double window_loss = 0;
  int window_count = 0;
  int step = 0;  // global step, monotone across RunSteps calls

  TileTrainLoop(LearnedCostModel& m, PreparedCache& c)
      : model(m), cfg(m.config()), cache(c), rng(cfg.seed ^ 0x7e11ull),
        adam(MakeAdamConfig(cfg)), params(m.params().params()) {}

  // Runs `steps` training steps drawing from `kernel` via the family
  // grouping (indices it accepts).
  void RunSteps(const RecordAt<data::TileKernelData>& kernel,
                const std::vector<std::vector<int>>& families, int steps) {
    for (int s = 0; s < steps; ++s, ++step) {
      // Balanced sampling: cycle families, pick a random kernel inside.
      const auto& family =
          families[static_cast<size_t>(step) % families.size()];
      std::uniform_int_distribution<size_t> pick(0, family.size() - 1);
      const auto& kdata = kernel(static_cast<size_t>(family[pick(rng)]));
      if (kdata.configs.size() < 2) continue;

      const PreparedKernel& pk =
          cache.Get(kdata.record.kernel.graph, kdata.record.fingerprint);

      // Sample a batch of distinct tile configs of this kernel.
      const int m = std::min<int>(cfg.configs_per_batch,
                                  static_cast<int>(kdata.configs.size()));
      std::vector<int> chosen(kdata.configs.size());
      std::iota(chosen.begin(), chosen.end(), 0);
      std::shuffle(chosen.begin(), chosen.end(), rng);
      chosen.resize(static_cast<size_t>(m));

      // One packed batch (same kernel, m tile configs) -> one forward pass.
      std::vector<BatchItem> items;
      std::vector<double> targets;
      items.reserve(static_cast<size_t>(m));
      targets.reserve(static_cast<size_t>(m));
      for (const int c : chosen) {
        items.push_back({&pk, &kdata.configs[static_cast<size_t>(c)]});
        targets.push_back(kdata.runtimes[static_cast<size_t>(c)]);
      }
      const PreparedBatch batch = model.PrepareBatch(items);
      tape.Clear();
      nn::Tensor stacked = model.ForwardBatch(tape, batch, /*training=*/true);
      nn::Tensor loss;
      if (cfg.loss == LossKind::kMse) {
        // Ablation row 'MSE loss (not rank)': regress log runtimes directly.
        loss = nn::MseLogLoss(tape, stacked, targets);
      } else {
        loss =
            nn::PairwiseRankLoss(tape, stacked, targets, Surrogate(cfg.loss));
      }
      tape.Backward(loss);
      adam.Step(params);

      const double value = loss.scalar();
      if (step == 0) stats.first_loss = value;
      window_loss += value;
      ++window_count;
      if ((step + 1) % 100 == 0) {
        adam.DecayLearningRate();
        if (step + 1 < cfg.train_steps) {
          window_loss = 0;
          window_count = 0;
        }
      }
    }
  }

  TrainStats Finish(Clock::time_point start) {
    stats.steps = cfg.train_steps;
    stats.final_loss = window_count > 0 ? window_loss / window_count : 0;
    stats.wall_seconds = Seconds(start);
    return stats;
  }
};

struct FusionTrainLoop {
  LearnedCostModel& model;
  const ModelConfig& cfg;
  PreparedCache& cache;
  std::mt19937_64 rng;
  nn::Adam adam;
  std::vector<nn::Parameter*> params;
  // Persistent arena-backed tape — see TileTrainLoop.
  nn::TapeArena arena;
  nn::Tape tape{&arena};
  TrainStats stats;
  double window_loss = 0;
  int window_count = 0;
  int step = 0;

  FusionTrainLoop(LearnedCostModel& m, PreparedCache& c)
      : model(m), cfg(m.config()), cache(c), rng(cfg.seed ^ 0xF007ull),
        adam(MakeAdamConfig(cfg)), params(m.params().params()) {}

  void RunSteps(const RecordAt<data::FusionSample>& sample,
                const std::vector<std::vector<int>>& families, int steps) {
    for (int s = 0; s < steps; ++s, ++step) {
      // Assemble the minibatch: the RNG draws and the record reads stay
      // serial (so sampling is identical at any pool width, and a window's
      // records are resolved on this thread only), then the picked kernels
      // featurize concurrently through the thread-safe cache.
      std::vector<const data::FusionSample*> picked;
      picked.reserve(static_cast<size_t>(cfg.kernels_per_batch));
      for (int b = 0; b < cfg.kernels_per_batch; ++b) {
        const auto& family =
            families[(static_cast<size_t>(step) * cfg.kernels_per_batch + b) %
                     families.size()];
        std::uniform_int_distribution<size_t> pick(0, family.size() - 1);
        picked.push_back(&sample(static_cast<size_t>(family[pick(rng)])));
      }
      std::vector<const PreparedKernel*> prepared(picked.size());
      const auto featurize = [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
          const auto& sample = *picked[static_cast<size_t>(b)];
          prepared[static_cast<size_t>(b)] = &cache.Get(
              sample.record.kernel.graph, sample.record.fingerprint);
        }
      };
      if (picked.size() > 1 && ThreadPool::Global().size() > 1) {
        ParallelFor(0, static_cast<std::int64_t>(picked.size()), 1,
                    featurize);
      } else {
        featurize(0, static_cast<std::int64_t>(picked.size()));
      }
      std::vector<BatchItem> items;
      std::vector<double> targets;
      items.reserve(picked.size());
      targets.reserve(picked.size());
      for (size_t b = 0; b < picked.size(); ++b) {
        items.push_back(
            {prepared[b], cfg.use_tile_features ? &picked[b]->tile : nullptr});
        targets.push_back(picked[b]->runtime);
      }
      const PreparedBatch batch = model.PrepareBatch(items);
      tape.Clear();
      nn::Tensor stacked = model.ForwardBatch(tape, batch, /*training=*/true);
      nn::Tensor loss;
      if (cfg.loss == LossKind::kMse) {
        loss = nn::MseLogLoss(tape, stacked, targets);
      } else {
        loss =
            nn::PairwiseRankLoss(tape, stacked, targets, Surrogate(cfg.loss));
      }
      tape.Backward(loss);
      adam.Step(params);

      const double value = loss.scalar();
      if (step == 0) stats.first_loss = value;
      window_loss += value;
      ++window_count;
      if ((step + 1) % 100 == 0) {
        adam.DecayLearningRate();
        if (step + 1 < cfg.train_steps) {
          window_loss = 0;
          window_count = 0;
        }
      }
    }
  }

  TrainStats Finish(Clock::time_point start) {
    stats.steps = cfg.train_steps;
    stats.final_loss = window_count > 0 ? window_loss / window_count : 0;
    stats.wall_seconds = Seconds(start);
    return stats;
  }
};

// The family grouping of an in-memory dataset's records (TileKernelData
// or FusionSample).
template <typename Record>
std::vector<std::vector<int>> Families(std::span<const Record> records,
                                       std::span<const int> train_program_ids) {
  return GroupByFamily(
      records.size(),
      [&](std::size_t i) -> const std::string& {
        return records[i].record.family;
      },
      [&](std::size_t i) { return records[i].record.program_id; },
      train_program_ids);
}

// The family grouping of a window's records, from the sampler's scan:
// nothing is decoded.
std::vector<std::vector<int>> Families(const data::StreamWindow& window,
                                       std::span<const int> train_program_ids) {
  return GroupByFamily(
      window.size(),
      [&](std::size_t i) -> const std::string& { return window.family(i); },
      [&](std::size_t i) { return window.program_id(i); }, train_program_ids);
}

// Default per-window step budget for the streaming trainers.
int ResolveStepsPerWindow(int requested, int train_steps,
                          std::size_t windows) {
  if (requested > 0) return requested;
  if (windows <= 1) return train_steps;
  return static_cast<int>(
      (static_cast<std::size_t>(train_steps) + windows - 1) / windows);
}

}  // namespace

TrainStats TrainTileTask(LearnedCostModel& model,
                         const data::TileDataset& dataset,
                         std::span<const int> train_program_ids,
                         PreparedCache& cache) {
  const auto start = Clock::now();

  // ---- Fit feature scalers on the training slice ---------------------------
  if (!model.fitted()) {
    std::unordered_set<std::uint64_t> seen;
    std::unordered_set<int> wanted(train_program_ids.begin(),
                                   train_program_ids.end());
    for (const auto& k : dataset.kernels) {
      if (!wanted.contains(k.record.program_id)) continue;
      if (!seen.insert(k.record.fingerprint).second) continue;
      FitNodeScalerVia(model, cache.feature_source(), k.record.kernel.graph,
                       k.record.fingerprint);
      for (const auto& tile : k.configs) model.FitTileScaler(tile);
    }
    model.FinishFitting();
  }

  const auto families =
      Families(std::span(dataset.kernels), train_program_ids);
  if (families.empty()) {
    throw std::invalid_argument("TrainTileTask: no training kernels");
  }

  TileTrainLoop loop(model, cache);
  loop.RunSteps([&](std::size_t i) -> const data::TileKernelData& {
                  return dataset.kernels[i];
                },
                families, loop.cfg.train_steps);
  return loop.Finish(start);
}

TrainStats TrainFusionTask(LearnedCostModel& model,
                           const data::FusionDataset& dataset,
                           std::span<const int> train_program_ids,
                           PreparedCache& cache) {
  const auto start = Clock::now();
  const ModelConfig& cfg = model.config();

  if (!model.fitted()) {
    std::unordered_set<int> wanted(train_program_ids.begin(),
                                   train_program_ids.end());
    double log_sum = 0;
    long log_count = 0;
    for (const auto& s : dataset.samples) {
      if (!wanted.contains(s.record.program_id)) continue;
      FitNodeScalerVia(model, cache.feature_source(), s.record.kernel.graph,
                       s.record.fingerprint);
      model.FitTileScaler(s.tile);
      log_sum += std::log(s.runtime + 1e-9);
      ++log_count;
    }
    model.FinishFitting();
    if (cfg.log_target && log_count > 0) {
      model.SetOutputBias(static_cast<float>(log_sum / log_count));
    }
  }

  const auto families =
      Families(std::span(dataset.samples), train_program_ids);
  if (families.empty()) {
    throw std::invalid_argument("TrainFusionTask: no training samples");
  }

  FusionTrainLoop loop(model, cache);
  loop.RunSteps([&](std::size_t i) -> const data::FusionSample& {
                  return dataset.samples[i];
                },
                families, cfg.train_steps);
  return loop.Finish(start);
}

// ---- Streaming trainers ----------------------------------------------------

TrainStats TrainTileTaskStreaming(LearnedCostModel& model,
                                  data::StreamingSampler& sampler,
                                  std::span<const int> train_program_ids,
                                  PreparedCache& cache,
                                  int steps_per_window) {
  const auto start = Clock::now();
  if (sampler.task() != data::StreamTask::kTile) {
    throw std::invalid_argument(
        "TrainTileTaskStreaming: sampler streams the fusion task");
  }
  const ModelConfig& cfg = model.config();

  // Scaler pre-pass: stream the windows in CANONICAL order with the exact
  // in-memory dedupe (fingerprint only, first occurrence in dataset order)
  // so the fitted scalers match TrainTileTask bit for bit.
  if (!model.fitted()) {
    std::unordered_set<std::uint64_t> seen;
    std::unordered_set<int> wanted(train_program_ids.begin(),
                                   train_program_ids.end());
    for (std::size_t w = 0; w < sampler.windows_per_epoch(); ++w) {
      data::StreamWindow window = sampler.Window(w);
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (!wanted.contains(window.program_id(i))) continue;
        const data::TileKernelData& k = window.tile(i);
        if (!seen.insert(k.record.fingerprint).second) continue;
        FitNodeScalerVia(model, cache.feature_source(), k.record.kernel.graph,
                         k.record.fingerprint);
        for (const auto& tile : k.configs) model.FitTileScaler(tile);
      }
    }
    model.FinishFitting();
  }

  const int per_window = ResolveStepsPerWindow(
      steps_per_window, cfg.train_steps, sampler.windows_per_epoch());
  TileTrainLoop loop(model, cache);
  // A window may hold no training kernels (every record filtered out); skip
  // it — but a full epoch of empty windows means the split has no training
  // data at all, the in-memory trainers' invalid_argument case.
  std::size_t consecutive_empty = 0;
  while (loop.step < cfg.train_steps) {
    data::StreamWindow window = sampler.Next();
    const auto families = Families(window, train_program_ids);
    if (families.empty()) {
      if (++consecutive_empty >= sampler.windows_per_epoch()) {
        throw std::invalid_argument(
            "TrainTileTaskStreaming: no training kernels");
      }
      continue;
    }
    consecutive_empty = 0;
    loop.RunSteps(
        [&](std::size_t i) -> const data::TileKernelData& {
          return window.tile(i);
        },
        families, std::min(per_window, cfg.train_steps - loop.step));
  }
  return loop.Finish(start);
}

TrainStats TrainFusionTaskStreaming(LearnedCostModel& model,
                                    data::StreamingSampler& sampler,
                                    std::span<const int> train_program_ids,
                                    PreparedCache& cache,
                                    int steps_per_window) {
  const auto start = Clock::now();
  if (sampler.task() != data::StreamTask::kFusion) {
    throw std::invalid_argument(
        "TrainFusionTaskStreaming: sampler streams the tile task");
  }
  const ModelConfig& cfg = model.config();

  if (!model.fitted()) {
    std::unordered_set<int> wanted(train_program_ids.begin(),
                                   train_program_ids.end());
    double log_sum = 0;
    long log_count = 0;
    for (std::size_t w = 0; w < sampler.windows_per_epoch(); ++w) {
      data::StreamWindow window = sampler.Window(w);
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (!wanted.contains(window.program_id(i))) continue;
        const data::FusionSample& s = window.fusion(i);
        FitNodeScalerVia(model, cache.feature_source(), s.record.kernel.graph,
                         s.record.fingerprint);
        model.FitTileScaler(s.tile);
        log_sum += std::log(s.runtime + 1e-9);
        ++log_count;
      }
    }
    model.FinishFitting();
    if (cfg.log_target && log_count > 0) {
      model.SetOutputBias(static_cast<float>(log_sum / log_count));
    }
  }

  const int per_window = ResolveStepsPerWindow(
      steps_per_window, cfg.train_steps, sampler.windows_per_epoch());
  FusionTrainLoop loop(model, cache);
  std::size_t consecutive_empty = 0;
  while (loop.step < cfg.train_steps) {
    data::StreamWindow window = sampler.Next();
    const auto families = Families(window, train_program_ids);
    if (families.empty()) {
      if (++consecutive_empty >= sampler.windows_per_epoch()) {
        throw std::invalid_argument(
            "TrainFusionTaskStreaming: no training samples");
      }
      continue;
    }
    consecutive_empty = 0;
    loop.RunSteps(
        [&](std::size_t i) -> const data::FusionSample& {
          return window.fusion(i);
        },
        families, std::min(per_window, cfg.train_steps - loop.step));
  }
  return loop.Finish(start);
}

}  // namespace tpuperf::core
