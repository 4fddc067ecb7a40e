// serve_poisson: open-loop Poisson arrivals at one fixed rate into
// serve::PredictionService (the paper's compiler-client traffic, §5.3).
//
// Set-up trains the tile-task model on the corpus, collects the corpus's
// default-fusion kernels with their compiler-default tiles, boots the
// service and warms it (every kernel once, then one second of traffic at
// the benchmark's rate), so the PreparedCache and the plan cache are full
// before timing starts. The timed region replays a seeded Poisson schedule;
// each request's latency runs from its scheduled send time.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "core/thread_pool.h"
#include "core/trainer.h"
#include "pipeline.h"
#include "serve/prediction_service.h"
#include "trace.h"

namespace tpubench {
namespace {

namespace serve = tpuperf::serve;

// Offered load: about half of what the service sustains on the reference
// machine (4 cores; open-loop arrivals stopped keeping up above ~34000
// requests/s). A constant, never recalibrated per run, so that a faster
// commit shows as lower latency and CPU per request, not as more load.
constexpr double kRatePerS = 16000;
// Latency limit of slo_attainment.
constexpr double kLatencyLimitUs = 5000;
// Training steps of the served model.
constexpr int kTrainSteps = 200;
// Service workers: with the batcher, the service computes on at most 4
// threads (the global pool runs inline, width kPoolWidth = 1).
constexpr int kServiceThreads = 3;
// Served scores re-checked against PredictScore per run.
constexpr std::size_t kCheckedRequests = 64;

struct Pool {
  std::vector<ir::Graph> kernels;
  std::vector<ir::TileConfig> tiles;
};

struct State {
  std::vector<ir::Program> corpus;
  Pool pool;
  std::unique_ptr<serve::PredictionService> service;
};

serve::ServiceConfig MakeServiceConfig() {
  serve::ServiceConfig config;  // defaults, never the environment
  config.num_threads = kServiceThreads;
  return config;
}

struct LegResult {
  std::vector<RequestRecord> records;
  std::vector<double> values;       // served value per request (completed)
  std::vector<std::size_t> kernel;  // pool index per request
  std::vector<double> enqueue_us;
  std::vector<double> lateness_us;
  double wall_s = 0;
  double cpu_s = 0;
  serve::ServiceStats before, after;
};

// Replays `schedule` against the service: a generator thread sends at the
// scheduled instants, the calling thread collects completions in order.
LegResult RunLeg(serve::PredictionService& service, const Pool& pool,
                 const std::vector<double>& schedule,
                 const std::vector<std::size_t>& draws) {
  struct Issued {
    std::size_t index = 0;
    std::future<serve::PredictResult> future;
  };
  LegResult r;
  const std::size_t n = schedule.size();
  r.records.resize(n);
  r.values.assign(n, 0.0);
  r.kernel = draws;
  r.enqueue_us.resize(n);
  r.lateness_us.resize(n);
  std::vector<Clock::time_point> scheduled(n);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Issued> issued;
  bool done = false;

  r.before = service.stats();
  const double cpu_start = ProcessCpuSeconds();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(schedule[i]));
  }
  std::thread generator([&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(scheduled[i]);
      const auto sent = Clock::now();
      r.lateness_us[i] =
          std::chrono::duration<double, std::micro>(sent - scheduled[i])
              .count();
      Issued out{i, {}};
      try {
        Span span("serve.predict_async", static_cast<std::int64_t>(i));
        out.future = service.PredictAsync(pool.kernels[draws[i]],
                                          &pool.tiles[draws[i]]);
      } catch (const std::exception&) {
        r.records[i].outcome = Outcome::kRefused;
      }
      r.enqueue_us[i] =
          std::chrono::duration<double, std::micro>(Clock::now() - sent)
              .count();
      if (!out.future.valid()) continue;
      {
        std::lock_guard lock(mu);
        issued.push_back(std::move(out));
      }
      cv.notify_one();
    }
    std::lock_guard lock(mu);
    done = true;
    cv.notify_one();
  });

  for (;;) {
    Issued next;
    {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return !issued.empty() || done; });
      if (issued.empty()) break;
      next = std::move(issued.front());
      issued.pop_front();
    }
    RequestRecord& rec = r.records[next.index];
    try {
      // No span: the wait is the harness idling until the request is due
      // and served, not time spent in the serve layer.
      const serve::PredictResult result = next.future.get();
      rec.outcome = result.degraded ? Outcome::kFailed : Outcome::kCompleted;
      r.values[next.index] = result.value;
    } catch (const std::exception&) {
      rec.outcome = Outcome::kFailed;
    }
    const auto completed = Clock::now();
    rec.latency_us = std::chrono::duration<double, std::micro>(
                         completed - scheduled[next.index])
                         .count();
    Tracer& tracer = GlobalTracer();
    if (tracer.enabled()) {
      const auto ns = [&](Clock::time_point t) {
        return tracer.NowNs() -
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t)
                   .count();
      };
      tracer.Add("request.latency", ns(scheduled[next.index]), ns(completed),
                 static_cast<std::int64_t>(next.index));
    }
  }
  generator.join();
  r.wall_s = SecondsSince(start);
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  r.after = service.stats();
  return r;
}

void Setup(State& s, std::uint64_t seed) {
  s.service.reset();
  s.corpus = Corpus(1.0);
  const data::SplitSpec split = data::RandomSplit(s.corpus, kSplitSeed);
  const data::TileDataset dataset = data::BuildTileDataset(
      s.corpus, Simulator(), DatasetOptionsFor(1.0));

  auto model =
      std::make_unique<core::LearnedCostModel>(TileModelConfig(kTrainSteps));
  {
    core::PreparedCache cache(*model);
    core::TrainTileTask(*model, dataset, split.train, cache);
  }

  // The corpus's default-fusion kernels (the tile dataset decomposes every
  // program with the default heuristic), deduplicated, each with the tile
  // the compiler picks for it.
  const analytical::AnalyticalModel analytical(Simulator().target());
  s.pool = {};
  std::unordered_set<std::uint64_t> seen;
  for (const auto& k : dataset.kernels) {
    if (!seen.insert(k.record.fingerprint).second) continue;
    s.pool.kernels.push_back(k.record.kernel.graph);
    s.pool.tiles.push_back(
        data::CompilerDefaultTile(k.record.kernel.graph, Simulator(), analytical));
  }

  s.service = std::make_unique<serve::PredictionService>(std::move(model),
                                                         MakeServiceConfig());
  // Warm-up: every kernel once (fills the PreparedCache), then one second
  // of traffic at the benchmark's rate (compiles the plans of the batch
  // shapes that rate produces).
  std::vector<std::future<serve::PredictResult>> warm;
  for (std::size_t i = 0; i < s.pool.kernels.size(); ++i) {
    warm.push_back(s.service->PredictAsync(s.pool.kernels[i], &s.pool.tiles[i]));
    if (warm.size() == 64 || i + 1 == s.pool.kernels.size()) {
      for (auto& f : warm) f.get();
      warm.clear();
    }
  }
  const auto schedule =
      PoissonSchedule(StreamSeed(seed, "serve.warmup"), kRatePerS, 1.0);
  RunLeg(*s.service, s.pool, schedule,
         SeededDraws(StreamSeed(seed, "serve.warmup.kernels"),
                     s.pool.kernels.size(), schedule.size()));
}

}  // namespace

RunResult RunServePoisson(const RunConfig& config) {
  core::ThreadPool::SetNumThreads(kPoolWidth);
  RunResult result;
  Report& report = result.report;
  State s;
  const double setup_s =
      MedianSetupSeconds(config.trace, [&] { Setup(s, config.seed); });
  serve::PredictionService& service = *s.service;

  const std::vector<double> schedule = PoissonSchedule(
      StreamSeed(config.seed, "serve.arrivals"), kRatePerS, config.seconds);
  const std::vector<std::size_t> draws =
      SeededDraws(StreamSeed(config.seed, "serve.kernels"),
                  s.pool.kernels.size(), schedule.size());

  ResetPeakRss();  // the peak of serving, not of the five set-ups
  const LegResult leg = RunLeg(service, s.pool, schedule, draws);
  const double peak_rss = PeakRssMb();

  // ---- Output check: served scores are bit-equal to PredictScore --------
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < leg.records.size(); ++i) {
    if (leg.records[i].outcome == Outcome::kCompleted) completed.push_back(i);
  }
  std::size_t mismatches = 0;
  if (!completed.empty()) {
    const core::LearnedCostModel& model = service.model();
    for (const std::size_t pick :
         SeededDraws(StreamSeed(config.seed, "serve.check"), completed.size(),
                     kCheckedRequests)) {
      const std::size_t i = completed[pick];
      const std::size_t k = leg.kernel[i];
      const double direct =
          model.PredictScore(model.Prepare(s.pool.kernels[k]), &s.pool.tiles[k]);
      if (direct != leg.values[i]) ++mismatches;
    }
  }
  if (mismatches > 0) {
    result.check_failures.push_back(
        std::to_string(mismatches) +
        " served scores differ from PredictScore");
  }

  const OutcomeSummary outcomes = Account(leg.records, kLatencyLimitUs);
  std::vector<double> latencies;
  for (const RequestRecord& r : leg.records) {
    if (r.outcome == Outcome::kCompleted) latencies.push_back(r.latency_us);
  }
  const LatencySummary lat = Summarize(latencies);
  result.attempted = outcomes.sent;
  result.failed = outcomes.failed + mismatches;

  const double completed_n = static_cast<double>(outcomes.completed);
  SetEndToEnd(report, setup_s, peak_rss, completed_n / leg.wall_s,
              leg.cpu_s * 1e6 / std::max(1.0, completed_n));
  SetInfo(report, "offered_rate_per_s", kRatePerS, "1/s");
  SetInfo(report, "latency_samples", static_cast<double>(lat.samples), "count");
  SetInfo(report, "latency_p50_us", lat.p50, "us");
  SetInfo(report, "latency_tail_percentile", lat.tail_percentile, "pct");
  SetInfo(report, "latency_tail_us", lat.tail, "us");
  SetInfo(report, "latency_limit_us", kLatencyLimitUs, "us");
  SetInfo(report, "slo_attainment", outcomes.slo_attainment, "ratio");
  SetInfo(report, "error_rate",
          static_cast<double>(result.failed) /
              std::max<double>(1.0, static_cast<double>(result.attempted)),
          "ratio");

  if (config.trace) {
    GlobalTracer().set_enabled(true);
    const LegResult traced = RunLeg(service, s.pool, schedule, draws);
    SetInfo(report, "trace.throughput_delta_pct",
            100.0 * (leg.wall_s / traced.wall_s - 1.0), "pct");
    SetInfo(report, "trace.cpu_us_per_op_delta_pct",
            100.0 * (traced.cpu_s / leg.cpu_s - 1.0), "pct");

    std::vector<double> enqueue = traced.enqueue_us;
    std::sort(enqueue.begin(), enqueue.end());
    SetLayer(report, "serve.enqueue_us", Quantile(enqueue, 0.5), "us");
    const auto delta = [&](std::uint64_t serve::ServiceStats::*field) {
      return static_cast<double>(traced.after.*field - traced.before.*field);
    };
    const double batches = delta(&serve::ServiceStats::batches);
    const double mean_batch =
        batches == 0 ? 0.0 : delta(&serve::ServiceStats::batched_items) / batches;
    SetLayer(report, "serve.mean_batch_size", mean_batch, "count");
    SetLayer(report, "serve.deadline_flush_frac",
             batches == 0 ? 0.0
                          : delta(&serve::ServiceStats::deadline_flushes) / batches,
             "ratio");
    const double hits = delta(&serve::ServiceStats::plan_hits);
    const double misses = delta(&serve::ServiceStats::plan_misses);
    SetLayer(report, "plan.hit_ratio",
             hits + misses == 0 ? 0.0 : hits / (hits + misses), "ratio");
    SetLayer(report, "plan.compiles", delta(&serve::ServiceStats::plan_compiles),
             "count");
    std::vector<double> lateness = traced.lateness_us;
    std::sort(lateness.begin(), lateness.end());
    SetLayer(report, "serve.generator_lateness_p99_us", Quantile(lateness, 0.99),
             "us");

    LayerProbeInputs in;
    in.model = &service.model();
    for (std::size_t i = 0; i < s.pool.kernels.size(); ++i) {
      in.kernels.push_back(&s.pool.kernels[i]);
    }
    in.tiles = s.pool.tiles;
    in.batch = std::max(1, static_cast<int>(mean_batch + 0.5));
    for (std::size_t p = 0; p < s.corpus.size(); p += 13) {
      in.programs.push_back(&s.corpus[p]);
    }
    ProbeLayers(report, in);
  }
  return result;
}

}  // namespace tpubench
