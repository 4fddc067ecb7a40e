#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

namespace tpubench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

double TailPercentile(std::size_t samples) {
  double best = 0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100), computed
    // in integers (per 10^4) so 1000 samples at p99 give exactly 10.
    const auto beyond_x1e4 =
        static_cast<std::uint64_t>(samples) *
        static_cast<std::uint64_t>(std::llround((100.0 - p) * 100.0));
    if (beyond_x1e4 >= 10 * 10000ull) best = p;
  }
  return best;
}

LatencySummary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.samples = values.size();
  s.p50 = Quantile(values, 0.5);
  s.tail_percentile = TailPercentile(values.size());
  if (s.tail_percentile > 0) s.tail = Quantile(values, s.tail_percentile / 100);
  return s;
}

OutcomeSummary Account(const std::vector<RequestRecord>& records,
                       double latency_limit_us) {
  OutcomeSummary s;
  s.sent = records.size();
  for (const RequestRecord& r : records) {
    if (r.outcome != Outcome::kCompleted) {
      ++s.failed;
      continue;
    }
    ++s.completed;
    if (r.latency_us <= latency_limit_us) ++s.within_limit;
  }
  s.slo_attainment = s.sent == 0 ? 0.0
                                 : static_cast<double>(s.within_limit) /
                                       static_cast<double>(s.sent);
  return s;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds) {
  // Inverse-CDF exponential gaps from 53-bit uniforms: unlike
  // std::exponential_distribution, the same on every standard library.
  std::mt19937_64 rng(seed);
  const auto gap = [&] {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
    return -std::log1p(-u) / rate_per_s;
  };
  std::vector<double> at;
  for (double t = gap(); t < seconds; t += gap()) at.push_back(t);
  return at;
}

std::vector<std::size_t> SeededDraws(std::uint64_t seed, std::size_t n,
                                     std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> out(count);
  // Modulo of a 64-bit draw instead of uniform_int_distribution, whose
  // output is implementation-defined: the draw is part of the benchmark's
  // input and must not change with the standard library.
  for (std::size_t& v : out) v = static_cast<std::size_t>(rng() % n);
  return out;
}

std::uint64_t StreamSeed(std::uint64_t run_seed, std::string_view purpose) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ run_seed;
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // splitmix64 finalizer
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, MetricKind kind) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!ValidUnit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {name, value, unit, kind};
      return;
    }
  }
  metrics_.push_back({name, value, unit, kind});
}

const Metric* Report::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::Lines() const {
  std::string out;
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof(buf), "metric %-34s = %.17g %s\n",
                  m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::Json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed, MetricKind kind) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metric& m : metrics_) {
    if (m.kind != kind) continue;
    if (!first) out += ", ";
    first = false;
    // JSON has no NaN/Inf; a non-finite measurement is printed as 0 so the
    // line stays parseable (the harness fails such a run's checks).
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace tpubench
