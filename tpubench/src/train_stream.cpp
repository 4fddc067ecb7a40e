// train_stream: out-of-core training of the tile-task model from a sharded
// dataset store through data::StreamingSampler (paper §4, where the
// datasets do not fit in memory).
//
// Set-up builds the scale-4 corpus's tile dataset and writes it as a
// sharded store (1 MiB parts), then scans it with a shuffle-window sampler
// whose windows are a small fraction of the corpus, and trains a warm-up leg.
// The timed region trains the same model on through the sampler in short
// legs of a fixed step count — the only workload that runs the backward
// pass and parameter updates, and the only one that reads the store.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <unordered_set>

#include "core/evaluation.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "dataset/store.h"
#include "dataset/streaming.h"
#include "pipeline.h"
#include "trace.h"

namespace tpubench {
namespace {

// Corpus scale of the store: ~4x the base corpus, many windows' worth.
constexpr double kCorpusScale = 4.0;
// Part size of the sharded store.
constexpr std::uint64_t kPartBytes = 1 << 20;
// Records per shuffle window.
constexpr std::size_t kWindowRecords = 256;
// Training steps per shuffle window. A leg is one epoch: this many steps
// on each window (~375 steps, ~1 s on the reference machine), so every leg
// trains on every record once and legs cost the same whatever the seed's
// window order.
constexpr int kStepsPerWindow = 25;
// Legs per second of --seconds.
constexpr double kLegsPerSecond = 0.8;
// Steps of the single-window parity check.
constexpr int kParitySteps = 30;

struct State {
  std::vector<ir::Program> corpus;
  data::SplitSpec split;
  std::string store_path;
  std::unique_ptr<data::TileDataset> dataset;  // for the parity check
  data::TileDataset test_set;                  // test programs' kernels
  std::unique_ptr<data::StreamingSampler> sampler;
  std::unique_ptr<core::LearnedCostModel> model;
  std::unique_ptr<core::PreparedCache> cache;
  int steps_per_leg = 0;
  double store_write_s = 0;
  double scan_s = 0;
};

core::TrainStats TrainLeg(State& s) {
  Span span("core.train_tile_streaming");
  return core::TrainTileTaskStreaming(*s.model, *s.sampler, s.split.train,
                                      *s.cache, kStepsPerWindow);
}

void Setup(State& s, const std::string& dir, std::uint64_t seed) {
  s.cache.reset();
  s.model.reset();
  s.sampler.reset();
  s.dataset.reset();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  s.corpus = Corpus(kCorpusScale);
  s.split = data::RandomSplit(s.corpus, kSplitSeed);
  data::DatasetOptions options = DatasetOptionsFor(kCorpusScale);
  options.store_part_bytes = kPartBytes;

  data::StoreLoadStats stats;
  {
    Span span("dataset.build_and_write_store");
    s.dataset = std::make_unique<data::TileDataset>(data::LoadOrBuildTileDataset(
        dir, s.corpus, Simulator(), options, nullptr, &stats));
  }
  if (stats.cache_hit) {
    throw std::runtime_error("train_stream: set-up found a stale store");
  }
  s.store_write_s = stats.seconds;
  s.store_path = stats.path;

  const std::unordered_set<int> test(s.split.test.begin(), s.split.test.end());
  s.test_set = {};
  for (const auto& k : s.dataset->kernels) {
    if (test.contains(k.record.program_id)) s.test_set.kernels.push_back(k);
  }

  {
    Span span("dataset.scan");
    s.sampler = std::make_unique<data::StreamingSampler>(
        s.store_path, data::StreamTask::kTile,
        data::StreamingOptions{.window_records = kWindowRecords,
                               .seed = StreamSeed(seed, "train.shuffle")});
  }
  s.scan_s = s.sampler->scan_seconds();

  // Warm-up leg: fits the scalers (one canonical pass over the store) and
  // fills the PreparedCache, so that every timed leg is steady-state
  // training.
  s.steps_per_leg =
      kStepsPerWindow * static_cast<int>(s.sampler->windows_per_epoch());
  s.model = std::make_unique<core::LearnedCostModel>(
      TileModelConfig(s.steps_per_leg));
  s.cache = std::make_unique<core::PreparedCache>(*s.model,
                                                  s.sampler->features().get());
  TrainLeg(s);
}

// The streaming trainer over one window (the whole store, canonical order)
// must reproduce the in-memory trainer's losses bit for bit.
std::string CheckSingleWindowParity(const State& s) {
  data::StreamingSampler single(s.store_path, data::StreamTask::kTile, {});
  core::LearnedCostModel streamed(TileModelConfig(kParitySteps));
  core::PreparedCache streamed_cache(streamed, single.features().get());
  const core::TrainStats a = core::TrainTileTaskStreaming(
      streamed, single, s.split.train, streamed_cache);
  core::LearnedCostModel in_memory(TileModelConfig(kParitySteps));
  core::PreparedCache in_memory_cache(in_memory);
  const core::TrainStats b =
      core::TrainTileTask(in_memory, *s.dataset, s.split.train, in_memory_cache);
  if (a.first_loss != b.first_loss || a.final_loss != b.final_loss) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "single-window losses %.17g/%.17g differ from in-memory "
                  "%.17g/%.17g",
                  a.first_loss, a.final_loss, b.first_loss, b.final_loss);
    return buf;
  }
  return "";
}

// Wall and CPU seconds of each timed leg.
struct Legs {
  int steps = 0;  // per leg
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  core::TrainStats last;
};

// Trains the set-up's model for `legs` more one-epoch legs: windows from
// the store, forward, backward and Adam updates. (Each call of the trainer
// starts fresh Adam moments.)
Legs TrainLegs(State& s, int legs) {
  Legs out;
  out.steps = s.steps_per_leg;
  for (int i = 0; i < legs; ++i) {
    const double cpu_start = ThreadCpuSeconds();
    const auto start = Clock::now();
    out.last = TrainLeg(s);
    out.wall_s.push_back(SecondsSince(start));
    out.cpu_s.push_back(ThreadCpuSeconds() - cpu_start);
  }
  return out;
}

struct Rates {
  double steps_per_s = 0;
  double cpu_us_per_step = 0;
};

// Medians over the legs: on a shared host the machine's speed drops by up
// to ~25% for fractions of a second, and a median over many legs resists
// those bursts where a ratio over the whole region would absorb them.
Rates LegRates(const Legs& legs) {
  const double steps = legs.steps;
  std::vector<double> wall = legs.wall_s;
  std::vector<double> cpu = legs.cpu_s;
  std::sort(wall.begin(), wall.end());
  std::sort(cpu.begin(), cpu.end());
  std::fprintf(stderr,
               "[tpubench] leg steps/s: fastest quarter %.1f, median %.1f, "
               "slowest quarter %.1f\n",
               steps / Quantile(wall, 0.25), steps / Quantile(wall, 0.5),
               steps / Quantile(wall, 0.75));
  return {steps / Quantile(wall, 0.5), Quantile(cpu, 0.5) * 1e6 / steps};
}

// Removes the run's store directory on every exit path.
struct DirGuard {
  std::string dir;
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

}  // namespace

RunResult RunTrainStream(const RunConfig& config) {
  core::ThreadPool::SetNumThreads(kPoolWidth);
  RunResult result;
  Report& report = result.report;
  const std::string dir =
      config.work_dir + "/store-" + std::to_string(::getpid());
  const DirGuard guard{dir};
  State s;
  const double setup_s = MedianSetupSeconds(
      config.trace, [&] { Setup(s, dir, config.seed); });
  const int legs = std::max(
      3, static_cast<int>(std::lround(config.seconds * kLegsPerSecond)));

  // ---- Output check, outside the timed region ----------------------------
  if (const std::string failure = CheckSingleWindowParity(s); !failure.empty()) {
    result.check_failures.push_back(failure);
  }
  s.dataset.reset();  // train from the store alone
  ResetPeakRss();     // the peak of streaming training, not of set-up

  const Legs timed = TrainLegs(s, legs);
  const Rates rates = LegRates(timed);
  const double peak_rss = PeakRssMb();

  // Quality of the streamed model on the test programs (paper Table 2).
  const auto quality = core::EvaluateTileTask(
      s.test_set, s.split.test, s.corpus,
      core::MakeLearnedTileScorer(*s.model, *s.cache));

  result.attempted = static_cast<std::uint64_t>(legs) * timed.steps;
  result.failed = result.check_failures.size();
  SetEndToEnd(report, setup_s, peak_rss, rates.steps_per_s,
              rates.cpu_us_per_step);
  SetInfo(report, "train_legs", legs, "count");
  SetInfo(report, "train_steps_per_leg", timed.steps, "count");
  SetInfo(report, "store_records", static_cast<double>(s.sampler->total_records()),
          "count");
  SetInfo(report, "store_parts", static_cast<double>(s.sampler->part_count()),
          "count");
  SetInfo(report, "windows_per_epoch",
          static_cast<double>(s.sampler->windows_per_epoch()), "count");
  SetInfo(report, "final_loss", timed.last.final_loss, "loss");
  SetInfo(report, "kendall_tau", core::AggregateKendall(quality).mean, "tau");
  SetInfo(report, "tile_ape", core::AggregateApe(quality).mean, "%");
  SetInfo(report, "error_rate",
          static_cast<double>(result.failed) /
              static_cast<double>(result.attempted),
          "ratio");

  if (config.trace) {
    GlobalTracer().set_enabled(true);
    const Rates traced = LegRates(TrainLegs(s, legs));
    SetInfo(report, "trace.throughput_delta_pct",
            100.0 * (traced.steps_per_s / rates.steps_per_s - 1.0), "pct");
    SetInfo(report, "trace.cpu_us_per_op_delta_pct",
            100.0 * (traced.cpu_us_per_step / rates.cpu_us_per_step - 1.0),
            "pct");
    SetLayer(report, "dataset.store_write_s", s.store_write_s, "s");
    SetLayer(report, "dataset.scan_s", s.scan_s, "s");

    // Next() alone over one epoch of a fresh sampler (prefetch on, as the
    // trainer uses it).
    data::StreamingSampler probe(
        s.store_path, data::StreamTask::kTile,
        {.window_records = kWindowRecords,
         .seed = StreamSeed(config.seed, "train.shuffle")});
    std::size_t records = 0;
    const auto start = Clock::now();
    for (std::size_t w = 0; w < probe.windows_per_epoch(); ++w) {
      Span span("dataset.window_next");
      records += probe.Next().size();
    }
    const double epoch_s = SecondsSince(start);
    SetLayer(report, "dataset.window_next_ms",
             epoch_s * 1e3 / static_cast<double>(probe.windows_per_epoch()),
             "ms");
    SetLayer(report, "dataset.window_records_per_s",
             static_cast<double>(records) / epoch_s, "1/s");

    // Cold StreamedFeatures::Lookup: each test kernel once.
    const auto features = probe.features();
    std::size_t next = 0;
    SetLayer(report, "dataset.feature_lookup_us",
             MedianCallUs("dataset.feature_lookup", 64,
                          [&] {
                            const ir::Graph& g =
                                s.test_set.kernels[next++ % s.test_set.kernels.size()]
                                    .record.kernel.graph;
                            (void)features->Lookup(g.Fingerprint(),
                                                   g.StructuralSignature());
                          }),
             "us");

    // The same steps through the in-memory trainer, on the same records,
    // with a fitted model and a warm cache as in the timed legs.
    const data::StoreContents contents = data::ReadStoreContents(s.store_path);
    core::LearnedCostModel mem_model(TileModelConfig(s.steps_per_leg));
    core::PreparedCache mem_cache(mem_model, contents.features.get());
    core::TrainTileTask(mem_model, contents.tile, s.split.train, mem_cache);
    const auto mem_start = Clock::now();
    {
      Span span("core.train_tile");
      for (int i = 0; i < legs; ++i) {
        core::TrainTileTask(mem_model, contents.tile, s.split.train, mem_cache);
      }
    }
    SetLayer(report, "core.inmemory_steps_per_s",
             static_cast<double>(legs) * s.steps_per_leg /
                 SecondsSince(mem_start),
             "1/s");

    LayerProbeInputs in;
    in.model = s.model.get();
    for (const auto& k : s.test_set.kernels) {
      in.kernels.push_back(&k.record.kernel.graph);
      in.tiles.push_back(k.configs.front());
    }
    in.batch = s.model->config().configs_per_batch;
    for (const int pid : s.split.test) {
      in.programs.push_back(&s.corpus[static_cast<std::size_t>(pid)]);
    }
    ProbeLayers(report, in);
  }
  return result;
}

}  // namespace tpubench
