// Tests of the benchmark's own plumbing: the percentile rule, failure
// accounting, per-seed determinism of its inputs, metric names (including
// agreement with BENCHMARK.json), and span self time.
#include <gtest/gtest.h>

#include <fstream>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>

#include "pipeline.h"
#include "stats.h"
#include "trace.h"

namespace tpubench {
namespace {

// ---- Percentile rule ---------------------------------------------------------

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0);
  EXPECT_EQ(TailPercentile(99), 0);     // p90 has 9.9 beyond
  EXPECT_EQ(TailPercentile(100), 90);   // exactly 10 beyond p90
  EXPECT_EQ(TailPercentile(999), 90);   // p99 has 9.99 beyond
  EXPECT_EQ(TailPercentile(1000), 99);  // exactly 10 beyond p99
  EXPECT_EQ(TailPercentile(9999), 99);
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(100000), 99.99);
  EXPECT_EQ(TailPercentile(10000000), 99.99);  // the ladder's top
}

TEST(PercentileRule, SummaryReportsMedianAndTail) {
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);  // 1..1000, shuffled below
  std::reverse(values.begin(), values.end());
  const LatencySummary s = Summarize(values);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_percentile, 99);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);

  const LatencySummary few = Summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(few.p50, 2.0);
  EXPECT_EQ(few.tail_percentile, 0);  // too few samples for any tail
  EXPECT_EQ(few.tail, 0);
}

// ---- Failure accounting --------------------------------------------------------

TEST(FailureAccounting, FailedAndRefusedRequestsMissTheLimit) {
  const std::vector<RequestRecord> records = {
      {Outcome::kCompleted, 100},   // within
      {Outcome::kCompleted, 900},   // beyond the limit
      {Outcome::kFailed, 10},       // fast, but failed: a miss
      {Outcome::kRefused, 0},       // refused at admission: a miss
      {Outcome::kCompleted, 500},   // exactly at the limit: within
  };
  const OutcomeSummary s = Account(records, 500);
  EXPECT_EQ(s.sent, 5u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.within_limit, 2u);
  EXPECT_DOUBLE_EQ(s.slo_attainment, 2.0 / 5.0);
}

TEST(FailureAccounting, NothingSentAttainsNothing) {
  EXPECT_EQ(Account({}, 1).slo_attainment, 0);
}

// ---- Seeded inputs -------------------------------------------------------------

TEST(SeededInputs, ArrivalScheduleIsAPureFunctionOfTheSeed) {
  const auto a = PoissonSchedule(StreamSeed(7, "serve.arrivals"), 16000, 1.0);
  const auto b = PoissonSchedule(StreamSeed(7, "serve.arrivals"), 16000, 1.0);
  const auto c = PoissonSchedule(StreamSeed(8, "serve.arrivals"), 16000, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0);
  EXPECT_LT(a.back(), 1.0);
  // ~16000 arrivals in one second (Poisson: sd ~126).
  EXPECT_NEAR(static_cast<double>(a.size()), 16000, 800);
}

TEST(SeededInputs, ProgramAndKernelDrawsAreAPureFunctionOfTheSeed) {
  const auto a = SeededDraws(StreamSeed(3, "serve.kernels"), 6, 100);
  EXPECT_EQ(a, SeededDraws(StreamSeed(3, "serve.kernels"), 6, 100));
  EXPECT_NE(a, SeededDraws(StreamSeed(4, "serve.kernels"), 6, 100));
  std::set<std::size_t> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), 6u);  // every kernel drawn
  EXPECT_LT(*distinct.rbegin(), 6u);
}

TEST(SeededInputs, StreamsOfOneRunAreIndependent) {
  EXPECT_NE(StreamSeed(1, "serve.arrivals"), StreamSeed(1, "serve.kernels"));
  EXPECT_NE(StreamSeed(1, "serve.arrivals"), StreamSeed(2, "serve.arrivals"));
  EXPECT_EQ(StreamSeed(1, "serve.arrivals"), StreamSeed(1, "serve.arrivals"));
}

// ---- Metric names ----------------------------------------------------------------

TEST(MetricNames, ValidityRules) {
  EXPECT_TRUE(ValidMetricName("latency_p50_us"));
  EXPECT_TRUE(ValidMetricName("plan.replay_us_b1"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/no"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));

  EXPECT_TRUE(ValidUnit("ms"));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("GFLOP/s"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("m s"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(MetricNames, EveryDefinedMetricIsValidAndUnique) {
  std::set<std::string> names;
  for (const auto* table : {&EndToEndMetricUnits(), &LayerMetricUnits()}) {
    for (const auto& [name, unit] : *table) {
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(ValidUnit(unit)) << name << " " << unit;
      EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    }
  }
}

TEST(MetricNames, ReportRejectsInvalidNamesAndPrintsAllDigits) {
  Report report;
  EXPECT_THROW(report.Set("bad name", 1, "s", MetricKind::kInfo),
               std::invalid_argument);
  EXPECT_THROW(report.Set("ok", 1, "bad unit", MetricKind::kInfo),
               std::invalid_argument);
  report.Set("setup_s", 0.1234567890123, "s", MetricKind::kEndToEnd);
  report.Set("core.pack_us", 2, "us", MetricKind::kLayer);
  EXPECT_EQ(report.Json(true, 3, 0, MetricKind::kEndToEnd),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.12345678901230001, "
            "\"unit\": \"s\"}}}");
}

// The harness and BENCHMARK.json must name the same metrics with the same
// units: BENCHMARK.json declares the metrics and the harness reports them.
std::vector<std::pair<std::string, std::string>> BenchmarkJsonMetrics(
    const std::string& section) {
  std::ifstream is(TPUBENCH_REPO_ROOT "/BENCHMARK.json");
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string text = ss.str();
  const std::size_t begin = text.find("\"" + section + "\"");
  const std::size_t end = text.find(']', begin);
  const std::string body = text.substr(begin, end - begin);
  const std::regex entry(
      R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

TEST(MetricNames, MatchBenchmarkJson) {
  EXPECT_EQ(BenchmarkJsonMetrics("end_to_end"), EndToEndMetricUnits());
  auto layer = BenchmarkJsonMetrics("per_layer");
  auto defined = LayerMetricUnits();
  std::sort(layer.begin(), layer.end());
  std::sort(defined.begin(), defined.end());
  EXPECT_EQ(layer, defined);
}

// ---- Spans -------------------------------------------------------------------------

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<SpanRecord> spans = {
      {"autotuner.tune", 0, 100, 1, 0, -1, 1},
      {"core.estimate_batch", 10, 40, 2, 1, -1, 1},
      {"core.estimate_batch", 50, 70, 3, 1, -1, 1},
      {"features.featurize", 15, 25, 4, 2, -1, 1},
  };
  const auto self = LayerSelfTimeNs(spans);
  EXPECT_EQ(self.at("autotuner"), 100 - 30 - 20);
  EXPECT_EQ(self.at("core"), (30 - 10) + 20);
  EXPECT_EQ(self.at("features"), 10);
}

TEST(Spans, TracerNestsPerThreadAndExportsChromeEvents) {
  Tracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.set_enabled(true);
  {
    Span outer("serve.request", 42);
    Span inner("plan.replay");
  }
  { Span off_scope("core.prepare"); }
  tracer.set_enabled(false);
  { Span ignored("core.ignored"); }
  const auto spans = tracer.Snapshot();
  tracer.Clear();
  ASSERT_EQ(spans.size(), 3u);
  // Closed innermost first.
  EXPECT_EQ(spans[0].name, "plan.replay");
  EXPECT_EQ(spans[1].name, "serve.request");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, 0u);
  EXPECT_EQ(spans[1].request, 42);
  EXPECT_EQ(spans[2].parent, 0u);
  const std::string json = ChromeTraceJson(spans, "{}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"request\": 42"), std::string::npos);
}

}  // namespace
}  // namespace tpubench
