// Benchmark plumbing that does not touch the library: the percentile rule,
// request-outcome accounting, seeded arrival schedules and draws, metric
// names, and the metric report the harness prints.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tpubench {

// ---- Percentile rule ---------------------------------------------------------

// Linear-interpolated quantile q in [0, 1] of `sorted` (ascending); 0 when
// empty.
double Quantile(const std::vector<double>& sorted, double q);

// The tail the benchmark reports next to the median: the highest percentile
// of the ladder 90, 99, 99.9, 99.99 that still has at least ten samples
// beyond it (n * (1 - p/100) >= 10). Returns 0 when even p90 has fewer than
// ten samples beyond it, i.e. below 100 samples.
double TailPercentile(std::size_t samples);

struct LatencySummary {
  std::size_t samples = 0;
  double p50 = 0;
  double tail_percentile = 0;  // TailPercentile(samples); 0 = none
  double tail = 0;             // value at tail_percentile (0 when none)
};

// Median plus the percentile-rule tail of `values` (any order).
LatencySummary Summarize(std::vector<double> values);

// ---- Request outcomes ----------------------------------------------------------

enum class Outcome { kCompleted, kFailed, kRefused };

struct RequestRecord {
  Outcome outcome = Outcome::kCompleted;
  double latency_us = 0;  // scheduled send -> completion; completed only
};

struct OutcomeSummary {
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;   // failed or refused
  std::size_t within_limit = 0;
  double slo_attainment = 0;  // within_limit / sent; failures are misses
};

// Counts outcomes. A failed or refused request always misses the latency
// limit, whatever latency was recorded for it.
OutcomeSummary Account(const std::vector<RequestRecord>& records,
                       double latency_limit_us);

// ---- Seeded inputs ----------------------------------------------------------

// Open-loop Poisson arrivals: offsets in seconds from the start of the
// timed region, with exponential gaps at `rate_per_s`, up to `seconds`.
// A pure function of (seed, rate, seconds).
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds);

// `count` draws from [0, n), a pure function of (seed, n, count).
std::vector<std::size_t> SeededDraws(std::uint64_t seed, std::size_t n,
                                     std::size_t count);

// Derives an independent stream seed for one purpose of a run.
std::uint64_t StreamSeed(std::uint64_t run_seed, std::string_view purpose);

// ---- Metric names ------------------------------------------------------------

// A metric name starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'.
bool ValidMetricName(std::string_view name);
// A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool ValidUnit(std::string_view unit);

// ---- Report ------------------------------------------------------------------

enum class MetricKind {
  kEndToEnd,  // in the JSON result of an untraced run
  kLayer,     // in the JSON result of a traced run
  kInfo       // printed only
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  MetricKind kind = MetricKind::kInfo;
};

class Report {
 public:
  // Adds or replaces a metric; throws std::invalid_argument on an invalid
  // name or unit.
  void Set(const std::string& name, double value, const std::string& unit,
           MetricKind kind);
  const Metric* Find(std::string_view name) const;
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  // "metric <name> = <value> <unit>" lines, one per metric.
  std::string Lines() const;
  // The result object: {"correct", "attempted", "failed", "metrics"} with
  // the metrics of `kind`, values printed with all their digits.
  std::string Json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                   MetricKind kind) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace tpubench
