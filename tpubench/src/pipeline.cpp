#include "pipeline.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "dataset/families.h"
#include "dataset/fusion.h"
#include "features/featurizer.h"
#include "nn/matrix.h"
#include "plan/plan.h"
#include "trace.h"

namespace tpubench {

const sim::TpuSimulator& Simulator() {
  static const sim::TpuSimulator simulator{sim::TpuTarget::V2()};
  return simulator;
}

std::vector<ir::Program> Corpus(double scale) {
  return data::GenerateCorpus({.scale = scale, .seed = 0});
}

data::DatasetOptions DatasetOptionsFor(double corpus_scale) {
  data::DatasetOptions options;
  options.max_tile_configs_per_kernel = 32;
  options.fusion_configs_per_program = 10;
  options.corpus_scale = corpus_scale;
  options.corpus_seed = 0;
  return options;
}

core::ModelConfig TileModelConfig(int steps) {
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.train_steps = steps;
  return config;
}

core::ModelConfig FusionModelConfig(int steps) {
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.train_steps = steps;
  return config;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atol(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current resident set (Linux 4.0 and later).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    throw std::runtime_error(
        "cannot reset the peak resident set via /proc/self/clear_refs");
  }
}

double MedianSetupSeconds(bool trace, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int rep = 0; rep < (trace ? 1 : kSetupReps); ++rep) {
    const auto start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
    std::fprintf(stderr, "[tpubench] set-up %d: %.3fs\n", rep + 1,
                 times.back());
  }
  std::sort(times.begin(), times.end());
  return Quantile(times, 0.5);
}

double MedianCallUs(const char* span, int reps,
                    const std::function<void()>& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    {
      Span s(span);
      fn();
    }
    us.push_back(SecondsSince(start) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return Quantile(us, 0.5);
}

double GemmGflops(int m, int k, int n) {
  nn::Matrix a(m, k);
  nn::Matrix b(k, n);
  for (int i = 0; i < m * k; ++i) a.data()[i] = 0.001f * static_cast<float>(i % 97) - 0.04f;
  for (int i = 0; i < k * n; ++i) b.data()[i] = 0.002f * static_cast<float>(i % 89) - 0.08f;
  nn::Matrix out(m, n);
  // Median of 15 timed batches, each long enough (~2 ms) to dwarf the
  // clock read.
  const double flops = 2.0 * m * k * n;
  const int per_batch = std::max(1, static_cast<int>(4e6 / flops));
  const double us = MedianCallUs("nn.matmul", 15, [&] {
    for (int r = 0; r < per_batch; ++r) nn::MatMulInto(out, a, b);
  });
  return flops * per_batch / (us * 1e3);
}

void ProbeLayers(Report& report, const LayerProbeInputs& in) {
  const core::LearnedCostModel& model = *in.model;
  const std::size_t n = in.kernels.size();
  std::size_t next = 0;
  const auto cycle = [&] { return next++ % n; };

  SetLayer(report, "features.featurize_us",
           MedianCallUs("features.featurize", 64,
                        [&] { (void)feat::FeaturizeKernel(*in.kernels[cycle()]); }),
           "us");
  SetLayer(report, "core.prepare_us",
           MedianCallUs("core.prepare", 64,
                        [&] { (void)model.Prepare(*in.kernels[cycle()]); }),
           "us");

  // One batch of the workload's typical size, from its own kernels.
  std::vector<core::PreparedKernel> prepared;
  for (std::size_t i = 0; i < static_cast<std::size_t>(in.batch); ++i) {
    prepared.push_back(model.Prepare(*in.kernels[i % n]));
  }
  std::vector<core::BatchItem> items;
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    items.push_back({&prepared[i], &in.tiles[i % n]});
  }
  const core::BatchItem single[] = {items.front()};
  SetLayer(report, "core.pack_us",
           MedianCallUs("core.prepare_batch", 50,
                        [&] { (void)model.PrepareBatch(items); }),
           "us");
  const core::PreparedBatch batch = model.PrepareBatch(items);
  const core::PreparedBatch batch1 = model.PrepareBatch(single);
  SetLayer(report, "core.tape_forward_us",
           MedianCallUs("core.predict_batch", 30,
                        [&] { (void)model.PredictBatchSeconds(batch); }),
           "us");

  std::shared_ptr<const tpuperf::plan::CompiledPlan> plan;
  SetLayer(report, "plan.compile_ms",
           MedianCallUs("plan.compile", 5,
                        [&] {
                          plan = model.CompilePlan(batch.num_kernels(),
                                                   batch.total_nodes());
                        }) /
               1e3,
           "ms");
  const auto plan1 = model.CompilePlan(1, batch1.total_nodes());
  SetLayer(report, "plan.replay_us_b1",
           MedianCallUs("plan.replay",
                        100,
                        [&] { (void)model.PredictBatchWithPlan(*plan1, batch1); }),
           "us");
  SetLayer(report, "plan.replay_us_bmean",
           MedianCallUs("plan.replay", 50,
                        [&] { (void)model.PredictBatchWithPlan(*plan, batch); }),
           "us");

  const analytical::AnalyticalModel analytical(Simulator().target());
  SetLayer(report, "analytical.default_tile_us",
           MedianCallUs("analytical.default_tile", 64,
                        [&] {
                          (void)data::CompilerDefaultTile(
                              *in.kernels[cycle()], Simulator(), analytical);
                        }),
           "us");
  SetLayer(report, "sim.measure_us",
           MedianCallUs("sim.measure", 64,
                        [&] {
                          const std::size_t k = cycle();
                          (void)Simulator().Measure(*in.kernels[k],
                                                    in.tiles[k]);
                        }),
           "us");

  std::vector<std::pair<data::EdgeList, data::FusionConfig>> fusions;
  for (const ir::Program* p : in.programs) {
    data::EdgeList edges = data::EdgeList::FromGraph(p->graph);
    data::FusionConfig config = data::DefaultFusion(p->graph, edges);
    fusions.emplace_back(std::move(edges), std::move(config));
  }
  std::size_t next_program = 0;
  SetLayer(report, "dataset.apply_fusion_us",
           MedianCallUs("dataset.apply_fusion", 16,
                        [&] {
                          const std::size_t p =
                              next_program++ % in.programs.size();
                          (void)data::ApplyFusion(in.programs[p]->graph,
                                                  fusions[p].first,
                                                  fusions[p].second);
                        }),
           "us");

  ProbeAutotuner(report, model, in.programs);

  // The model's widest dense layer: [nodes, 2 * hidden] x [2 * hidden,
  // hidden] (GraphSAGE self ++ neighbour features).
  const int hidden = model.config().hidden_dim;
  SetLayer(report, "nn.gemm_gflops",
           GemmGflops(std::max(64, batch.total_nodes()), 2 * hidden, hidden),
           "GFLOP/s");
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"cpu_us_per_op", "us"},
  };
  return units;
}

void SetEndToEnd(Report& report, double setup_s, double peak_rss_mb,
                 double ops_per_s, double cpu_us_per_op) {
  const double values[] = {setup_s, peak_rss_mb, ops_per_s, cpu_us_per_op};
  const auto& units = EndToEndMetricUnits();
  for (std::size_t i = 0; i < units.size(); ++i) {
    report.Set(units[i].first, values[i], units[i].second,
               MetricKind::kEndToEnd);
  }
}

namespace {

const char* const kLayers[] = {"serve",     "plan",       "core",
                               "features",  "nn",         "autotuner",
                               "analytical", "sim",       "dataset"};

}  // namespace

void SetLayerSelfTimes(Report& report) {
  const auto self = LayerSelfTimeNs(GlobalTracer().Snapshot());
  std::fprintf(stderr, "[tpubench] per-layer self time:\n");
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ms =
        it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    std::fprintf(stderr, "  %-11s %12.3f ms\n", layer, ms);
    SetLayer(report, std::string(layer) + ".self_ms", ms, "ms");
  }
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"serve.enqueue_us", "us"},
        {"serve.mean_batch_size", "count"},
        {"serve.deadline_flush_frac", "ratio"},
        {"serve.generator_lateness_p99_us", "us"},
        {"features.featurize_us", "us"},
        {"core.pack_us", "us"},
        {"core.prepare_us", "us"},
        {"core.tape_forward_us", "us"},
        {"core.inmemory_steps_per_s", "1/s"},
        {"plan.hit_ratio", "ratio"},
        {"plan.compiles", "count"},
        {"plan.compile_ms", "ms"},
        {"plan.replay_us_b1", "us"},
        {"plan.replay_us_bmean", "us"},
        {"autotuner.model_eval_share", "ratio"},
        {"feat.featurize_per_config", "count"},
        {"analytical.default_tile_us", "us"},
        {"dataset.apply_fusion_us", "us"},
        {"sim.measure_us", "us"},
        {"dataset.store_write_s", "s"},
        {"dataset.scan_s", "s"},
        {"dataset.window_next_ms", "ms"},
        {"dataset.window_records_per_s", "1/s"},
        {"dataset.feature_lookup_us", "us"},
        {"nn.gemm_gflops", "GFLOP/s"},
    };
    for (const char* layer : kLayers) {
      u.emplace_back(std::string(layer) + ".self_ms", "ms");
    }
    return u;
  }();
  return units;
}

void FillUnexercisedLayers(Report& report) {
  for (const auto& [name, unit] : LayerMetricUnits()) {
    if (report.Find(name) == nullptr) SetLayer(report, name, 0.0, unit);
  }
}

}  // namespace tpubench
