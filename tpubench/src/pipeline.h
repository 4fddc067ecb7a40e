// What the workloads share: the run configuration, the result they
// hand back, the fixed sizes of the benchmark, and the trained-model
// pipeline (corpus -> dataset -> model) they all start from.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/model_config.h"
#include "dataset/datasets.h"
#include "ir/program.h"
#include "sim/simulator.h"
#include "stats.h"

namespace tpubench {

namespace analytical = tpuperf::analytical;
namespace core = tpuperf::core;
namespace data = tpuperf::data;
namespace feat = tpuperf::feat;
namespace ir = tpuperf::ir;
namespace nn = tpuperf::nn;
namespace sim = tpuperf::sim;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
};

struct RunResult {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every check passed
};

// ---- Fixed sizes (constants of the benchmark, never read from the
// environment) -----------------------------------------------------------------

// Worker threads of the global core::ThreadPool for both workloads. One
// worker runs ParallelFor bodies inline on the calling thread: on the
// reference machine wider pools bought little (train_stream ran ~300
// steps/s at width 1 and at width 3) and made the runs noisier.
inline constexpr int kPoolWidth = 1;
// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 5;
// Split seed of the corpus (paper §4 random split).
inline constexpr std::uint64_t kSplitSeed = 1234;

// ---- Shared pipeline ---------------------------------------------------------

// The simulated target every workload measures on (TPU v2).
const sim::TpuSimulator& Simulator();

// The program corpus at `scale` (data::CorpusOptions, corpus seed 0).
std::vector<ir::Program> Corpus(double scale);

// Dataset budgets for a corpus generated at `corpus_scale`.
data::DatasetOptions DatasetOptionsFor(double corpus_scale);

// The paper's best tile-task and fusion-task models, trained for `steps`.
core::ModelConfig TileModelConfig(int steps);
core::ModelConfig FusionModelConfig(int steps);

// ---- Measurement helpers -----------------------------------------------------

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();
// CPU seconds of the calling thread so far.
double ThreadCpuSeconds();
// Peak resident set (VmHWM) of the process in MiB; 0 when unavailable.
double PeakRssMb();
// Returns freed heap to the system and restarts the peak-resident-set count
// from the current resident set, so that a later PeakRssMb() covers only
// what ran after this call, not the set-up before it.
void ResetPeakRss();

// Runs `setup` kSetupReps times (once when `trace`), returning the median
// wall time in seconds. The last set-up's state is the one the run uses.
double MedianSetupSeconds(bool trace, const std::function<void()>& setup);

// Median wall time in microseconds of `reps` calls of `fn`, each inside a
// span named `span`.
double MedianCallUs(const char* span, int reps, const std::function<void()>& fn);

// Throughput of nn::MatMul on [m, k] x [k, n] operands, in GFLOP/s.
double GemmGflops(int m, int k, int n);

// The end-to-end metrics every workload reports, with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricUnits();
void SetEndToEnd(Report& report, double setup_s, double peak_rss_mb,
                 double ops_per_s, double cpu_us_per_op);

// "<layer>.self_ms" for every library layer from the spans recorded so far
// (0 for a layer the workload never called), and prints the breakdown.
void SetLayerSelfTimes(Report& report);

// Per-layer metric helper.
inline void SetLayer(Report& report, const std::string& name, double value,
                     const std::string& unit) {
  report.Set(name, value, unit, MetricKind::kLayer);
}
inline void SetInfo(Report& report, const std::string& name, double value,
                    const std::string& unit) {
  report.Set(name, value, unit, MetricKind::kInfo);
}

// Inputs of the per-layer probes: the workload's own model, kernels and
// programs, at its own typical batch size.
struct LayerProbeInputs {
  const core::LearnedCostModel* model = nullptr;
  std::vector<const ir::Graph*> kernels;
  std::vector<ir::TileConfig> tiles;  // one per kernel
  int batch = 1;
  std::vector<const ir::Program*> programs;
};

// Times single calls into the layers' public functions on the workload's
// inputs (traced runs only): features.featurize_us, core.prepare_us,
// core.pack_us, core.tape_forward_us, plan.compile_ms, plan.replay_us_b1,
// plan.replay_us_bmean, analytical.default_tile_us, sim.measure_us,
// dataset.apply_fusion_us, nn.gemm_gflops and the ProbeAutotuner metrics.
void ProbeLayers(Report& report, const LayerProbeInputs& in);

// Searches up to three of `programs` (one TuneWithModel job each, scored by
// `model`, in autotuner_probe.cpp) to measure autotuner.model_eval_share and
// feat.featurize_per_config. ProbeLayers calls it.
void ProbeAutotuner(Report& report, const core::LearnedCostModel& model,
                    const std::vector<const ir::Program*>& programs);

// Every per-layer metric name the benchmark defines, so each workload
// reports the full set (0 for layer calls it does not make).
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();
// Sets every per-layer metric not yet in `report` to 0.
void FillUnexercisedLayers(Report& report);

// ---- Workloads -----------------------------------------------------------------

RunResult RunServePoisson(const RunConfig& config);
RunResult RunTrainStream(const RunConfig& config);

}  // namespace tpubench
