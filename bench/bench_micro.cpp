// Micro-benchmarks (google-benchmark) for the building blocks: simulator
// and analytical-model evaluation throughput, featurization, learned-model
// inference, fusion application, and tile enumeration. These quantify the
// §7.3 premise that model evaluations are orders of magnitude cheaper than
// hardware measurements.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "analytical/analytical_model.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "dataset/datasets.h"
#include "bench/common.h"
#include "dataset/families.h"
#include "features/featurizer.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "plan/plan.h"
#include "sim/simulator.h"

namespace tpuperf {
namespace {

// Shared fixtures, built once.
struct Fixture {
  ir::Program program = data::BuildProgram("ResNetV1", 0);
  sim::TpuSimulator simulator{sim::TpuTarget::V2()};
  analytical::AnalyticalModel analytical{sim::TpuTarget::V2()};
  data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
  data::FusionConfig default_fusion =
      data::DefaultFusion(program.graph, edges);
  std::vector<ir::Kernel> kernels =
      data::ApplyFusion(program.graph, edges, default_fusion);
  ir::Graph kernel = PickKernel();
  ir::TileConfig tile{simulator.DefaultTile(kernel)};
  core::LearnedCostModel model{MakeModel()};
  core::PreparedKernel prepared = MakePrepared();

  ir::Graph PickKernel() {
    // The largest kernel: representative of conv-fusion inference cost.
    const ir::Kernel* best = &kernels.front();
    for (const auto& k : kernels) {
      if (k.graph.num_nodes() > best->graph.num_nodes()) best = &k;
    }
    return best->graph;
  }
  core::LearnedCostModel MakeModel() {
    core::LearnedCostModel m(core::ModelConfig::TileTaskDefault());
    for (const auto& k : kernels) {
      m.FitNodeScaler(k.graph);
      m.FitTileScaler(simulator.DefaultTile(k.graph));
    }
    m.FinishFitting();
    return m;
  }
  core::PreparedKernel MakePrepared() { return model.Prepare(kernel); }
};

Fixture& F() {
  static Fixture fixture;
  return fixture;
}

void BM_SimulatorMeasure(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.simulator.Measure(f.kernel, f.tile));
  }
}
BENCHMARK(BM_SimulatorMeasure);

void BM_AnalyticalEstimate(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.analytical.EstimateRuntime(f.kernel, f.tile));
  }
}
BENCHMARK(BM_AnalyticalEstimate);

void BM_FeaturizeKernel(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(feat::FeaturizeKernel(f.kernel));
  }
}
BENCHMARK(BM_FeaturizeKernel);

void BM_ModelPrepare(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.Prepare(f.kernel));
  }
}
BENCHMARK(BM_ModelPrepare);

// A compiled plan sized for the fixture kernel (single-kernel replay).
const plan::CompiledPlan& SinglePlan() {
  static std::shared_ptr<const plan::CompiledPlan> plan = [] {
    auto& f = F();
    int cap = 1;
    while (cap < f.prepared.num_nodes) cap *= 2;
    return f.model.CompilePlan(1, cap);
  }();
  return *plan;
}

// Single-stream prediction latency, tape vs compiled-plan replay: the same
// (kernel, tile) scored by PredictScore (tape build + per-op dispatch) and
// by PredictWithPlan (static schedule over the preplanned slab). Outputs
// are bit-identical; the gap is pure dispatch/allocation overhead.
void BM_PredictScoreLatencyTape(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.PredictScore(f.prepared, &f.tile));
  }
}
BENCHMARK(BM_PredictScoreLatencyTape);

void BM_PredictScoreLatencyPlan(benchmark::State& state) {
  auto& f = F();
  const plan::CompiledPlan& plan = SinglePlan();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.PredictWithPlan(plan, f.prepared, &f.tile));
  }
}
BENCHMARK(BM_PredictScoreLatencyPlan);

// A batch of 32 (kernel, tile) pairs drawn from the seed program's fused
// kernels (cycled when the program has fewer), as the autotuner would form.
struct Batch32 {
  std::vector<core::PreparedKernel> prepared;
  std::vector<ir::TileConfig> tiles;
  std::vector<core::BatchItem> items;
  core::PreparedBatch packed;

  static constexpr int kBatch = 32;

  explicit Batch32(Fixture& f) {
    prepared.reserve(kBatch);
    tiles.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      const ir::Graph& kernel =
          f.kernels[static_cast<size_t>(i) % f.kernels.size()].graph;
      prepared.push_back(f.model.Prepare(kernel));
      tiles.push_back(f.simulator.DefaultTile(kernel));
    }
    for (int i = 0; i < kBatch; ++i) {
      items.push_back({&prepared[static_cast<size_t>(i)],
                       &tiles[static_cast<size_t>(i)]});
    }
    packed = f.model.PrepareBatch(items);
  }
};

Batch32& B32() {
  static Batch32 batch(F());
  return batch;
}

// 32 predictions via 32 sequential forward passes.
void BM_ModelInferenceSequential32(benchmark::State& state) {
  auto& f = F();
  auto& b = B32();
  for (auto _ : state) {
    double sum = 0;
    for (int i = 0; i < Batch32::kBatch; ++i) {
      sum += f.model.PredictScore(b.prepared[static_cast<size_t>(i)],
                                  &b.tiles[static_cast<size_t>(i)]);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * Batch32::kBatch);
}
BENCHMARK(BM_ModelInferenceSequential32);

// The same 32 predictions as one packed forward pass.
void BM_ModelInferenceBatch32(benchmark::State& state) {
  auto& f = F();
  auto& b = B32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.PredictBatch(b.packed));
  }
  state.SetItemsProcessed(state.iterations() * Batch32::kBatch);
}
BENCHMARK(BM_ModelInferenceBatch32);

// PredictBatch including batch assembly from already-prepared kernels.
void BM_ModelPrepareAndBatch32(benchmark::State& state) {
  auto& f = F();
  auto& b = B32();
  for (auto _ : state) {
    const core::PreparedBatch packed = f.model.PrepareBatch(b.items);
    benchmark::DoNotOptimize(f.model.PredictBatch(packed));
  }
  state.SetItemsProcessed(state.iterations() * Batch32::kBatch);
}
BENCHMARK(BM_ModelPrepareAndBatch32);

// The packed batch-32 forward at a fixed worker-pool width (Arg). The /1
// row is the serial baseline; wider rows show the thread-pool win on
// multi-core hosts (chunk partitioning is bit-exact, so outputs are the
// same at every width).
void BM_ModelInferenceBatch32Threads(benchmark::State& state) {
  auto& f = F();
  auto& b = B32();
  core::ThreadPool::SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model.PredictBatch(b.packed));
  }
  core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  state.SetItemsProcessed(state.iterations() * Batch32::kBatch);
}
BENCHMARK(BM_ModelInferenceBatch32Threads)->Arg(1)->Arg(2)->Arg(4);

// ---- Training-step fixtures -------------------------------------------------
// A batch-32 minibatch trained end to end (forward + loss + backward +
// Adam), for both paper tasks: the tile task's rank loss (GraphSAGE + LSTM
// reduction) and the fusion task's log-MSE (GraphSAGE + Transformer
// reduction). The kernels/tiles mirror the inference Batch32 fixture;
// targets come from the simulator.
struct TrainBatch32 {
  static constexpr int kBatch = 32;

  core::ModelConfig config;
  std::vector<core::PreparedKernel> prepared;
  std::vector<ir::TileConfig> tiles;
  std::vector<core::BatchItem> items;
  core::PreparedBatch packed;
  std::vector<double> targets;

  TrainBatch32(Fixture& f, core::ModelConfig cfg) : config(cfg) {
    core::LearnedCostModel model = MakeModel(f);
    prepared.reserve(kBatch);
    tiles.reserve(kBatch);
    targets.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      const ir::Graph& kernel =
          f.kernels[static_cast<size_t>(i) % f.kernels.size()].graph;
      prepared.push_back(model.Prepare(kernel));
      tiles.push_back(f.simulator.DefaultTile(kernel));
      targets.push_back(f.simulator.Measure(kernel, tiles.back()));
    }
    for (int i = 0; i < kBatch; ++i) {
      items.push_back({&prepared[static_cast<size_t>(i)],
                       config.use_tile_features
                           ? &tiles[static_cast<size_t>(i)]
                           : nullptr});
    }
    packed = model.PrepareBatch(items);
  }

  // A freshly initialized (deterministically seeded) model fitted on the
  // fixture kernels — each timed mode trains its own copy so parameter
  // drift never leaks between measurements.
  core::LearnedCostModel MakeModel(Fixture& f) const {
    core::LearnedCostModel m(config);
    for (const auto& k : f.kernels) {
      m.FitNodeScaler(k.graph);
      m.FitTileScaler(f.simulator.DefaultTile(k.graph));
    }
    m.FinishFitting();
    return m;
  }

  // One optimization step on `model` using `tape` (cleared here).
  double Step(core::LearnedCostModel& model, nn::Adam& adam,
              nn::Tape& tape) const {
    tape.Clear();
    nn::Tensor out = model.ForwardBatch(tape, packed, /*training=*/true);
    nn::Tensor loss;
    if (config.loss == core::LossKind::kMse) {
      loss = nn::MseLogLoss(tape, out, targets);
    } else {
      loss = nn::PairwiseRankLoss(tape, out, targets,
                                  nn::RankSurrogate::kHinge);
    }
    tape.Backward(loss);
    adam.Step(model.params().params());
    return loss.scalar();
  }
};

TrainBatch32& RankTrain32() {
  static TrainBatch32 batch(F(), core::ModelConfig::TileTaskDefault());
  return batch;
}

TrainBatch32& MseTrain32() {
  static TrainBatch32 batch(F(), core::ModelConfig::FusionTaskDefault());
  return batch;
}

// The fused + arena training step (the production path).
void TrainStepBenchmark(benchmark::State& state, TrainBatch32& b) {
  auto& f = F();
  core::LearnedCostModel model = b.MakeModel(f);
  nn::Adam adam(nn::AdamConfig{});
  nn::TapeArena arena;
  nn::Tape tape(/*grad_enabled=*/true, &arena);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.Step(model, adam, tape));
  }
  state.SetItemsProcessed(state.iterations() * TrainBatch32::kBatch);
}

void BM_TrainStepRank32(benchmark::State& state) {
  TrainStepBenchmark(state, RankTrain32());
}
BENCHMARK(BM_TrainStepRank32);

void BM_TrainStepMse32(benchmark::State& state) {
  TrainStepBenchmark(state, MseTrain32());
}
BENCHMARK(BM_TrainStepMse32);

void BM_TileEnumeration(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.simulator.EnumerateTiles(f.kernel, 256));
  }
}
BENCHMARK(BM_TileEnumeration);

void BM_DefaultFusionPass(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::DefaultFusion(f.program.graph, f.edges));
  }
}
BENCHMARK(BM_DefaultFusionPass);

void BM_ApplyFusion(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::ApplyFusion(f.program.graph, f.edges, f.default_fusion));
  }
}
BENCHMARK(BM_ApplyFusion);

void BM_GraphFingerprint(benchmark::State& state) {
  auto& f = F();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.kernel.Fingerprint());
  }
}
BENCHMARK(BM_GraphFingerprint);

void BM_BuildProgramGraph(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::BuildProgram("ResNetV1", 0));
  }
}
BENCHMARK(BM_BuildProgramGraph);

// Warm up once, then run for at least ~0.2 s; returns seconds per call.
template <typename Fn>
double TimeReps(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  fn();
  int reps = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.2);
  return elapsed / reps;
}

struct TrainTaskReport {
  double fused_steps_per_sec = 0;
  double fused_threaded_steps_per_sec = 0;
  // Tape buffer requests per step == per-step heap allocations without the
  // arena (each request was a fresh Matrix before); warm misses are what is
  // left with it.
  double buffer_requests_per_step = 0;
  double cold_heap_allocations = 0;
  double warm_heap_allocations_per_step = 0;
};

// Trains the batch-32 minibatch on 1 thread and on the pool, and counts
// per-step tape allocations through the arena.
TrainTaskReport ReportTrainingTask(TrainBatch32& b, int pool_threads) {
  auto& f = F();
  TrainTaskReport r;

  core::ThreadPool::SetNumThreads(1);
  {
    core::LearnedCostModel model = b.MakeModel(f);
    nn::Adam adam(nn::AdamConfig{});
    nn::TapeArena arena;
    nn::Tape tape(/*grad_enabled=*/true, &arena);
    // Cold step: every buffer request misses the (empty) pool.
    b.Step(model, adam, tape);
    r.cold_heap_allocations = static_cast<double>(arena.heap_allocations());
    // Warm steps: requests keep coming, misses should stop.
    constexpr int kWarmSteps = 10;
    arena.ResetStats();
    for (int i = 0; i < kWarmSteps; ++i) b.Step(model, adam, tape);
    r.buffer_requests_per_step =
        static_cast<double>(arena.requests()) / kWarmSteps;
    r.warm_heap_allocations_per_step =
        static_cast<double>(arena.heap_allocations()) / kWarmSteps;
    r.fused_steps_per_sec = 1.0 / TimeReps([&] { b.Step(model, adam, tape); });
  }
  core::ThreadPool::SetNumThreads(pool_threads);
  {
    core::LearnedCostModel model = b.MakeModel(f);
    nn::Adam adam(nn::AdamConfig{});
    nn::TapeArena arena;
    nn::Tape tape(/*grad_enabled=*/true, &arena);
    r.fused_threaded_steps_per_sec =
        1.0 / TimeReps([&] { b.Step(model, adam, tape); });
  }
  core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  return r;
}

void PrintTrainTask(const char* name, const TrainTaskReport& r,
                    int pool_threads) {
  std::printf("%s:\n", name);
  std::printf("  fused + arena  (1 thread):  %8.1f steps/s\n",
              r.fused_steps_per_sec);
  std::printf("  fused + arena (%2d threads): %8.1f steps/s\n", pool_threads,
              r.fused_threaded_steps_per_sec);
  std::printf(
      "  tape allocations/step: %.0f without arena -> %.1f warm misses "
      "(cold step: %.0f)\n",
      r.buffer_requests_per_step, r.warm_heap_allocations_per_step,
      r.cold_heap_allocations);
}

void PrintTrainTaskJson(FILE* json, const char* prefix,
                        const TrainTaskReport& r) {
  std::fprintf(json, "  \"%s_fused_steps_per_sec\": %.2f,\n", prefix,
               r.fused_steps_per_sec);
  std::fprintf(json, "  \"%s_fused_threaded_steps_per_sec\": %.2f,\n", prefix,
               r.fused_threaded_steps_per_sec);
  std::fprintf(json, "  \"%s_allocations_per_step_no_arena\": %.1f,\n",
               prefix, r.buffer_requests_per_step);
  std::fprintf(json, "  \"%s_allocations_per_step_arena\": %.2f,\n", prefix,
               r.warm_heap_allocations_per_step);
  std::fprintf(json, "  \"%s_allocation_reduction_x\": %.1f,\n", prefix,
               r.buffer_requests_per_step /
                   std::max(1.0, r.warm_heap_allocations_per_step));
}

}  // namespace

// Times batch-32 prediction against 32 sequential predictions on the same
// inputs — single-threaded AND on the worker pool — plus batch-32 TRAINING
// steps (forward + loss + backward + Adam) with the fused backward + tape
// arena. Printed after the google-benchmark table so the speedups,
// allocation counts, and parity bounds are visible in one run, and written
// to BENCH_results.json so the perf trajectory is machine-readable across
// PRs.
void ReportBatchedThroughput() {
  auto& f = F();
  auto& b = B32();
  using Clock = std::chrono::steady_clock;
  const auto time_reps = [](auto&& fn) {
    // Warm up once, then run for at least ~0.2 s.
    fn();
    int reps = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      fn();
      ++reps;
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < 0.2);
    return elapsed / reps;
  };

  core::ThreadPool::SetNumThreads(1);
  std::vector<double> sequential(Batch32::kBatch);
  const double seq_sec = time_reps([&] {
    for (int i = 0; i < Batch32::kBatch; ++i) {
      sequential[static_cast<size_t>(i)] = f.model.PredictScore(
          b.prepared[static_cast<size_t>(i)], &b.tiles[static_cast<size_t>(i)]);
    }
  });
  std::vector<double> batched;
  const double batch_sec = time_reps([&] {
    batched = f.model.PredictBatch(b.packed);
  });

  // The same packed forward on a >= 4-wide pool (the partitioning is
  // bit-exact, so `threaded` must equal `batched` element for element).
  const unsigned hw = std::thread::hardware_concurrency();
  const int threads = std::max(4, static_cast<int>(hw == 0 ? 1 : hw));
  core::ThreadPool::SetNumThreads(threads);
  std::vector<double> threaded;
  const double threaded_sec = time_reps([&] {
    threaded = f.model.PredictBatch(b.packed);
  });
  core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());

  double max_diff = 0;
  double max_thread_diff = 0;
  for (int i = 0; i < Batch32::kBatch; ++i) {
    max_diff = std::max(max_diff,
                        std::abs(batched[static_cast<size_t>(i)] -
                                 sequential[static_cast<size_t>(i)]));
    max_thread_diff = std::max(max_thread_diff,
                               std::abs(threaded[static_cast<size_t>(i)] -
                                        batched[static_cast<size_t>(i)]));
  }
  const double seq_rate = Batch32::kBatch / seq_sec;
  const double batch_rate = Batch32::kBatch / batch_sec;
  const double threaded_rate = Batch32::kBatch / threaded_sec;
  std::printf("\n--- Batched inference report (batch=%d) ---\n",
              Batch32::kBatch);
  std::printf("sequential (1 thread):  %10.0f predictions/s\n", seq_rate);
  std::printf("batched    (1 thread):  %10.0f predictions/s\n", batch_rate);
  std::printf("batched (%2d threads):   %10.0f predictions/s\n", threads,
              threaded_rate);
  std::printf("batch speedup:          %.2fx\n", batch_rate / seq_rate);
  std::printf("thread speedup:         %.2fx (on %u hardware threads)\n",
              threaded_rate / batch_rate, hw);
  std::printf("total speedup:          %.2fx\n", threaded_rate / seq_rate);
  std::printf("max |batched - sequential| = %.3g (must be 0)\n", max_diff);
  std::printf("max |threaded - batched|   = %.3g (must be 0)\n",
              max_thread_diff);

  // ---- Training throughput (batch-32 minibatch, 1 thread and pool) ---------
  std::printf("\n--- Training-step report (batch=%d) ---\n",
              TrainBatch32::kBatch);
  const TrainTaskReport rank_report = ReportTrainingTask(RankTrain32(),
                                                         threads);
  PrintTrainTask("rank loss (GraphSAGE + LSTM)", rank_report, threads);
  const TrainTaskReport mse_report = ReportTrainingTask(MseTrain32(), threads);
  PrintTrainTask("log-MSE (GraphSAGE + Transformer)", mse_report, threads);

  // This writer regenerates the file wholesale; carry the other sections'
  // numbers (written by the table benches / bench_serve) across the rewrite.
  const std::string dataset_store = bench::PreservedTopLevelJson("dataset_store");
  const std::string serving = bench::PreservedTopLevelJson("serving");
  const std::string robustness =
      bench::PreservedTopLevelJson("serving_robustness");
  const std::string plan_section = bench::PreservedTopLevelJson("plan");
  const std::string streaming =
      bench::PreservedTopLevelJson("dataset_streaming");
  FILE* json = std::fopen("BENCH_results.json", "w");
  if (json == nullptr) {
    std::printf("could not write BENCH_results.json\n");
    return;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"benchmark\": \"PredictBatch\",\n");
  std::fprintf(json, "  \"batch_size\": %d,\n", Batch32::kBatch);
  std::fprintf(json, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(json, "  \"pool_threads\": %d,\n", threads);
  std::fprintf(json, "  \"sequential_predictions_per_sec\": %.1f,\n",
               seq_rate);
  std::fprintf(json, "  \"batched_1thread_predictions_per_sec\": %.1f,\n",
               batch_rate);
  std::fprintf(json, "  \"batched_threaded_predictions_per_sec\": %.1f,\n",
               threaded_rate);
  std::fprintf(json, "  \"batch_speedup_vs_sequential\": %.3f,\n",
               batch_rate / seq_rate);
  std::fprintf(json, "  \"thread_speedup_vs_batched\": %.3f,\n",
               threaded_rate / batch_rate);
  std::fprintf(json, "  \"total_speedup_vs_sequential\": %.3f,\n",
               threaded_rate / seq_rate);
  std::fprintf(json, "  \"max_abs_diff_batched_vs_sequential\": %.3g,\n",
               max_diff);
  std::fprintf(json, "  \"max_abs_diff_threaded_vs_1thread\": %.3g,\n",
               max_thread_diff);
  std::fprintf(json, "  \"train_batch_size\": %d,\n", TrainBatch32::kBatch);
  PrintTrainTaskJson(json, "train_rank", rank_report);
  PrintTrainTaskJson(json, "train_mse", mse_report);
  std::fprintf(json, "  \"train_pool_threads\": %d", threads);
  if (!dataset_store.empty()) {
    std::fprintf(json, ",\n  \"dataset_store\": %s", dataset_store.c_str());
  }
  if (!serving.empty()) {
    std::fprintf(json, ",\n  \"serving\": %s", serving.c_str());
  }
  if (!robustness.empty()) {
    std::fprintf(json, ",\n  \"serving_robustness\": %s", robustness.c_str());
  }
  if (!plan_section.empty()) {
    std::fprintf(json, ",\n  \"plan\": %s", plan_section.c_str());
  }
  if (!streaming.empty()) {
    std::fprintf(json, ",\n  \"dataset_streaming\": %s", streaming.c_str());
  }
  std::fprintf(json, "\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_results.json\n");
}

// Times the compiled-plan replay against the tape path — single-stream
// PredictScore-equivalent latency and the packed batch-32 forward — and
// verifies bit-exactness, then merges a "plan" section into
// BENCH_results.json (after ReportBatchedThroughput's wholesale rewrite).
void ReportPlanLatency() {
  auto& f = F();
  auto& b = B32();
  core::ThreadPool::SetNumThreads(1);

  int node_cap = 1;
  while (node_cap < b.packed.total_nodes()) node_cap *= 2;
  const auto batch_plan = f.model.CompilePlan(Batch32::kBatch, node_cap);
  const plan::CompiledPlan& single_plan = SinglePlan();

  double tape_single = 0;
  const double tape_single_sec = TimeReps(
      [&] { tape_single = f.model.PredictScore(f.prepared, &f.tile); });
  double plan_single = 0;
  const double plan_single_sec = TimeReps([&] {
    plan_single = f.model.PredictWithPlan(single_plan, f.prepared, &f.tile);
  });

  std::vector<double> tape_batch;
  const double tape_batch_sec =
      TimeReps([&] { tape_batch = f.model.PredictBatch(b.packed); });
  std::vector<double> plan_batch;
  const double plan_batch_sec = TimeReps(
      [&] { plan_batch = f.model.PredictBatchWithPlan(*batch_plan, b.packed); });
  core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());

  double max_diff = std::abs(plan_single - tape_single);
  for (int i = 0; i < Batch32::kBatch; ++i) {
    max_diff = std::max(max_diff, std::abs(plan_batch[static_cast<size_t>(i)] -
                                           tape_batch[static_cast<size_t>(i)]));
  }
  const double single_speedup = tape_single_sec / plan_single_sec;
  const double batch_speedup = tape_batch_sec / plan_batch_sec;

  std::printf("\n--- Plan-compiled inference report (1 thread) ---\n");
  std::printf("single-kernel latency:  tape %8.1f us   plan %8.1f us   %.2fx\n",
              tape_single_sec * 1e6, plan_single_sec * 1e6, single_speedup);
  std::printf("batch-%d latency:       tape %8.1f us   plan %8.1f us   %.2fx\n",
              Batch32::kBatch, tape_batch_sec * 1e6, plan_batch_sec * 1e6,
              batch_speedup);
  std::printf("max |plan - tape| = %.3g (must be 0)\n", max_diff);
  std::printf(
      "batch plan: %d instructions, %d logical -> %d physical buffers, "
      "%.1f KiB slab\n",
      batch_plan->num_instructions(), batch_plan->num_buffers(),
      batch_plan->num_physical_buffers(),
      static_cast<double>(batch_plan->slab_bytes()) / 1024.0);

  char value[768];
  std::snprintf(
      value, sizeof(value),
      "{\n"
      "    \"latency_us_tape\": %.2f,\n"
      "    \"latency_us_plan\": %.2f,\n"
      "    \"speedup\": %.3f,\n"
      "    \"batch32_latency_us_tape\": %.2f,\n"
      "    \"batch32_latency_us_plan\": %.2f,\n"
      "    \"batch32_speedup\": %.3f,\n"
      "    \"max_abs_diff_plan_vs_tape\": %.3g,\n"
      "    \"plan_instructions\": %d,\n"
      "    \"plan_logical_buffers\": %d,\n"
      "    \"plan_physical_buffers\": %d,\n"
      "    \"plan_slab_bytes\": %zu\n  }",
      tape_single_sec * 1e6, plan_single_sec * 1e6, single_speedup,
      tape_batch_sec * 1e6, plan_batch_sec * 1e6, batch_speedup, max_diff,
      batch_plan->num_instructions(), batch_plan->num_buffers(),
      batch_plan->num_physical_buffers(), batch_plan->slab_bytes());
  bench::MergeTopLevelJsonKey("BENCH_results.json", "plan", value);
  std::printf("merged \"plan\" into BENCH_results.json\n");
}

}  // namespace tpuperf

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tpuperf::ReportBatchedThroughput();
  tpuperf::ReportPlanLatency();
  return 0;
}
