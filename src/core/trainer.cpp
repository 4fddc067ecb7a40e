#include "core/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
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

// Per family, in name order, the indices of a window's training records (its
// program id is in `wanted`), for balanced sampling. Reads only the window's
// metadata (a streaming window's scan): nothing is decoded.
template <typename Window>
std::vector<std::vector<int>> GroupByFamily(
    const Window& window, const std::unordered_set<int>& wanted) {
  std::map<std::string, std::vector<int>> groups;
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (!wanted.contains(window.program_id(i))) continue;
    groups[window.family(i)].push_back(static_cast<int>(i));
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
  PreparedKernel prepared = model_.Prepare(
      feat::LookupOrFeaturize(features_, kernel, fingerprint, sig));
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

// ---- The training loop -----------------------------------------------------
//
// Everything a run keeps ACROSS shuffle windows: the RNG, the Adam state,
// the tape, the global step counter and the loss window. Both tasks run
// their steps through one TrainLoop, whose Step() is the shared epilogue
// (forward, loss, backward, Adam, loss window, learning-rate decay).

struct TrainLoop {
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
  // The current step's minibatch, filled by the task's Draw.
  std::vector<BatchItem> items;
  std::vector<double> targets;
  TrainStats stats;
  double window_loss = 0;
  int window_count = 0;
  int step = 0;  // global step, monotone across windows

  TrainLoop(LearnedCostModel& m, PreparedCache& c, std::uint64_t seed_salt)
      : model(m), cfg(m.config()), cache(c), rng(cfg.seed ^ seed_salt),
        adam(MakeAdamConfig(cfg)), params(m.params().params()) {}

  // The drawn record's prepared kernel, by its stored hashes. Safe from
  // pool workers.
  const PreparedKernel& Prepare(const data::KernelRecord& record) {
    return cache.Get(record.kernel.graph, record.fingerprint,
                     record.signature);
  }

  // One optimizer step on the drawn minibatch. MSE on log runtimes is the
  // fusion loss and the tile ablation row 'MSE loss (not rank)'.
  void Step() {
    const PreparedBatch batch = model.PrepareBatch(items);
    tape.Clear();
    nn::Tensor stacked = model.ForwardBatch(tape, batch, /*training=*/true);
    const nn::Tensor loss =
        cfg.loss == LossKind::kMse
            ? nn::MseLogLoss(tape, stacked, targets)
            : nn::PairwiseRankLoss(tape, stacked, targets, Surrogate(cfg.loss));
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

  TrainStats Finish(Clock::time_point start) {
    stats.steps = cfg.train_steps;
    stats.final_loss = window_count > 0 ? window_loss / window_count : 0;
    stats.wall_seconds = Seconds(start);
    return stats;
  }
};

using Families = std::vector<std::vector<int>>;

// ---- The two tasks ---------------------------------------------------------
//
// What the loop and the driver leave open: how the scaler pre-pass observes
// one training record (Fit, then FinishFit once), and how a step draws its
// minibatch from a window's family grouping (Draw). Record i of a window is
// At(window, i): a streaming window decodes it the first time it is drawn.

// Tile-size task: a rank batch of one kernel's tile configs per step.
struct TileTask {
  static constexpr data::StreamTask kStream = data::StreamTask::kTile;
  static constexpr std::uint64_t kSeedSalt = 0x7e11;
  static constexpr const char* kRecords = "kernels";

  template <typename Window>
  static const data::TileKernelData& At(Window& window, std::size_t i) {
    return window.tile(i);
  }

  // Each distinct kernel once (by fingerprint, first occurrence in
  // canonical order): its node features and every tile config.
  void Fit(LearnedCostModel& model, const feat::KernelFeatureSource* source,
           const data::TileKernelData& k) {
    if (!fitted.insert(k.record.fingerprint).second) return;
    model.FitNodeScaler(feat::LookupOrFeaturize(
        source, k.record.kernel.graph, k.record.fingerprint,
        k.record.signature));
    for (const auto& tile : k.configs) model.FitTileScaler(tile);
  }
  void FinishFit(LearnedCostModel& model) { model.FinishFitting(); }

  // Cycles families by step and draws a random kernel inside, then a batch
  // of distinct tile configs of it. A kernel with fewer than 2 configs
  // yields no batch (false): the step is skipped.
  template <typename Window>
  static bool Draw(TrainLoop& loop, Window& window, const Families& families) {
    const auto& family =
        families[static_cast<size_t>(loop.step) % families.size()];
    std::uniform_int_distribution<size_t> pick(0, family.size() - 1);
    const auto& kdata = At(window, static_cast<size_t>(family[pick(loop.rng)]));
    if (kdata.configs.size() < 2) return false;

    const PreparedKernel& pk = loop.Prepare(kdata.record);
    const int m = std::min<int>(loop.cfg.configs_per_batch,
                                static_cast<int>(kdata.configs.size()));
    std::vector<int> chosen(kdata.configs.size());
    std::iota(chosen.begin(), chosen.end(), 0);
    std::shuffle(chosen.begin(), chosen.end(), loop.rng);
    chosen.resize(static_cast<size_t>(m));

    // One packed batch (same kernel, m tile configs) -> one forward pass.
    loop.items.clear();
    loop.targets.clear();
    for (const int c : chosen) {
      loop.items.push_back({&pk, &kdata.configs[static_cast<size_t>(c)]});
      loop.targets.push_back(kdata.runtimes[static_cast<size_t>(c)]);
    }
    return true;
  }

  std::unordered_set<std::uint64_t> fitted;
};

// Fusion task: a batch of kernels_per_batch kernels per step, one per
// family in turn, with runtime targets.
struct FusionTask {
  static constexpr data::StreamTask kStream = data::StreamTask::kFusion;
  static constexpr std::uint64_t kSeedSalt = 0xF007;
  static constexpr const char* kRecords = "samples";

  template <typename Window>
  static const data::FusionSample& At(Window& window, std::size_t i) {
    return window.fusion(i);
  }

  // Every sample: its node features, its tile, and its log runtime for the
  // output bias.
  void Fit(LearnedCostModel& model, const feat::KernelFeatureSource* source,
           const data::FusionSample& s) {
    model.FitNodeScaler(feat::LookupOrFeaturize(
        source, s.record.kernel.graph, s.record.fingerprint,
        s.record.signature));
    model.FitTileScaler(s.tile);
    log_sum += std::log(s.runtime + 1e-9);
    ++log_count;
  }
  void FinishFit(LearnedCostModel& model) {
    model.FinishFitting();
    if (model.config().log_target && log_count > 0) {
      model.SetOutputBias(static_cast<float>(log_sum / log_count));
    }
  }

  // The RNG draws and the record reads stay serial (so sampling is
  // identical at any pool width, and a window's records are resolved on
  // this thread only); then the picked kernels featurize concurrently
  // through the thread-safe cache.
  template <typename Window>
  static bool Draw(TrainLoop& loop, Window& window, const Families& families) {
    const ModelConfig& cfg = loop.cfg;
    std::vector<const data::FusionSample*> picked;
    picked.reserve(static_cast<size_t>(cfg.kernels_per_batch));
    for (int b = 0; b < cfg.kernels_per_batch; ++b) {
      const auto& family =
          families[(static_cast<size_t>(loop.step) * cfg.kernels_per_batch +
                    b) %
                   families.size()];
      std::uniform_int_distribution<size_t> pick(0, family.size() - 1);
      picked.push_back(
          &At(window, static_cast<size_t>(family[pick(loop.rng)])));
    }
    std::vector<const PreparedKernel*> prepared(picked.size());
    const auto featurize = [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t b = b0; b < b1; ++b) {
        prepared[static_cast<size_t>(b)] =
            &loop.Prepare(picked[static_cast<size_t>(b)]->record);
      }
    };
    if (picked.size() > 1 && ThreadPool::Global().size() > 1) {
      ParallelFor(0, static_cast<std::int64_t>(picked.size()), 1, featurize);
    } else {
      featurize(0, static_cast<std::int64_t>(picked.size()));
    }
    loop.items.clear();
    loop.targets.clear();
    for (size_t b = 0; b < picked.size(); ++b) {
      loop.items.push_back(
          {prepared[b], cfg.use_tile_features ? &picked[b]->tile : nullptr});
      loop.targets.push_back(picked[b]->runtime);
    }
    return true;
  }

  double log_sum = 0;
  long log_count = 0;
};

// ---- The driver ------------------------------------------------------------
//
// One driver walks a record source: a data::StreamingSampler, or an
// in-memory dataset viewed as a one-window stream (InMemoryStream). A source
// has windows_per_epoch() windows; Window(w) is window w in canonical order
// and Next() the next window to train on. A window has size(), program_id(i),
// family(i) and tile(i) or fusion(i).

// An in-memory dataset as a stream of one canonical window: Window(0) and
// Next() both return the whole span. The view is its own window.
template <typename Record>
class InMemoryStream {
 public:
  explicit InMemoryStream(std::span<const Record> records)
      : records_(records) {}

  std::size_t windows_per_epoch() const noexcept { return 1; }
  InMemoryStream Window(std::size_t) const { return *this; }
  InMemoryStream Next() const { return *this; }

  std::size_t size() const noexcept { return records_.size(); }
  int program_id(std::size_t i) const { return records_[i].record.program_id; }
  const std::string& family(std::size_t i) const {
    return records_[i].record.family;
  }
  const Record& tile(std::size_t i) const { return records_[i]; }
  const Record& fusion(std::size_t i) const { return records_[i]; }

 private:
  std::span<const Record> records_;
};

// Default per-window step budget: all steps when the source has one window,
// otherwise ceil(train_steps / windows_per_epoch).
int ResolveStepsPerWindow(int requested, int train_steps,
                          std::size_t windows) {
  if (requested > 0) return requested;
  if (windows <= 1) return train_steps;
  return static_cast<int>(
      (static_cast<std::size_t>(train_steps) + windows - 1) / windows);
}

// Fits the scalers (unless the model is fitted) over the source's windows in
// canonical order, then trains cfg.train_steps steps, at most
// `steps_per_window` per window drawn by Next(). A window with no training
// records is skipped; a full epoch of them means the split has no training
// data, and throws. `name` prefixes the error messages.
template <typename Task, typename Source>
TrainStats Train(const char* name, LearnedCostModel& model, Source&& source,
                 std::span<const int> train_program_ids, PreparedCache& cache,
                 int steps_per_window = 0) {
  const auto start = Clock::now();
  if constexpr (std::is_same_v<std::remove_cvref_t<Source>,
                               data::StreamingSampler>) {
    if (source.task() != Task::kStream) {
      throw std::invalid_argument(
          std::string(name) + ": sampler streams the " +
          (source.task() == data::StreamTask::kTile ? "tile" : "fusion") +
          " task");
    }
  }
  const ModelConfig& cfg = model.config();
  const std::unordered_set<int> wanted(train_program_ids.begin(),
                                       train_program_ids.end());
  const std::size_t windows = source.windows_per_epoch();

  if (!model.fitted()) {
    Task task;
    for (std::size_t w = 0; w < windows; ++w) {
      auto window = source.Window(w);
      for (std::size_t i = 0; i < window.size(); ++i) {
        if (!wanted.contains(window.program_id(i))) continue;
        task.Fit(model, cache.feature_source(), Task::At(window, i));
      }
    }
    task.FinishFit(model);
  }

  const int per_window =
      ResolveStepsPerWindow(steps_per_window, cfg.train_steps, windows);
  TrainLoop loop(model, cache, Task::kSeedSalt);
  // The first window is drawn whatever the step count, so a split with no
  // training records throws even when train_steps <= 0.
  std::size_t consecutive_empty = 0;
  for (;;) {
    auto window = source.Next();
    const Families families = GroupByFamily(window, wanted);
    if (families.empty()) {
      if (++consecutive_empty >= windows) {
        throw std::invalid_argument(std::string(name) + ": no training " +
                                    Task::kRecords);
      }
      continue;
    }
    consecutive_empty = 0;
    const int end =
        loop.step + std::min(per_window, cfg.train_steps - loop.step);
    for (; loop.step < end; ++loop.step) {
      if (Task::Draw(loop, window, families)) loop.Step();
    }
    if (loop.step >= cfg.train_steps) break;
  }
  return loop.Finish(start);
}

}  // namespace

TrainStats TrainTileTask(LearnedCostModel& model,
                         const data::TileDataset& dataset,
                         std::span<const int> train_program_ids,
                         PreparedCache& cache) {
  return Train<TileTask>("TrainTileTask", model,
                         InMemoryStream(std::span(dataset.kernels)),
                         train_program_ids, cache);
}

TrainStats TrainFusionTask(LearnedCostModel& model,
                           const data::FusionDataset& dataset,
                           std::span<const int> train_program_ids,
                           PreparedCache& cache) {
  return Train<FusionTask>("TrainFusionTask", model,
                           InMemoryStream(std::span(dataset.samples)),
                           train_program_ids, cache);
}

TrainStats TrainTileTaskStreaming(LearnedCostModel& model,
                                  data::StreamingSampler& sampler,
                                  std::span<const int> train_program_ids,
                                  PreparedCache& cache,
                                  int steps_per_window) {
  return Train<TileTask>("TrainTileTaskStreaming", model, sampler,
                         train_program_ids, cache, steps_per_window);
}

TrainStats TrainFusionTaskStreaming(LearnedCostModel& model,
                                    data::StreamingSampler& sampler,
                                    std::span<const int> train_program_ids,
                                    PreparedCache& cache,
                                    int steps_per_window) {
  return Train<FusionTask>("TrainFusionTaskStreaming", model, sampler,
                           train_program_ids, cache, steps_per_window);
}

}  // namespace tpuperf::core
