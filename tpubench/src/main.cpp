// tpubench: the repository benchmark. Runs one workload in this process and
// prints every metric by name with its unit, then, as the last line of
// stdout, the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exits nonzero when an output check fails.
//
//   tpubench --workload serve_poisson|train_stream --seed N
//            --seconds S --trace 0|1 --work-dir DIR [--commit ID]
//
// Build and run it through tpubench/run.py; see tpubench/BENCHMARK.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include <unistd.h>

#include "core/thread_pool.h"
#include "nn/gemm_backend.h"
#include "pipeline.h"
#include "trace.h"

namespace {

using namespace tpubench;

// The settings the benchmark pins: each may be unset or set to its default,
// anything else would measure a different program.
struct PinnedEnv {
  const char* name;
  const char* default_value;  // nullptr: must be unset or empty
};
constexpr PinnedEnv kPinned[] = {
    {"TPUPERF_FAULTS", nullptr},
    {"TPUPERF_PRECISION", "f32"},
    {"TPUPERF_GEMM_BACKEND", "builtin"},
    {"TPUPERF_PLAN_ENABLE", "1"},
    {"TPUPERF_PLAN_CACHE", "8"},
};

// Returns the first non-default pinned setting, or "" when all are default.
std::string NonDefaultSetting() {
  for (const PinnedEnv& p : kPinned) {
    const char* v = std::getenv(p.name);
    if (v == nullptr || v[0] == '\0') continue;
    if (p.default_value == nullptr || std::strcmp(v, p.default_value) != 0) {
      return std::string(p.name) + "=" + v;
    }
  }
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("TPUPERF_PLAN_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    if (name != "TPUPERF_PLAN_ENABLE" && name != "TPUPERF_PLAN_CACHE") {
      return entry;
    }
  }
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "tpubench: %s\nusage: tpubench --workload "
               "serve_poisson|train_stream --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--commit ID]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  std::string trace_arg = "0";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config.seconds > 0) ||
          config.seconds > 60) {
        return Usage("--seconds must be in (0, 60]");
      }
    } else if (flag == "--trace") {
      trace_arg = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (trace_arg != "0" && trace_arg != "1") return Usage("--trace is 0 or 1");
  config.trace = trace_arg == "1";
  if (!have_seed || config.work_dir.empty()) {
    return Usage("--seed and --work-dir are required");
  }
  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "serve_poisson") run = RunServePoisson;
  if (config.workload == "train_stream") run = RunTrainStream;
  if (run == nullptr) return Usage("unknown --workload");

  if (const std::string bad = NonDefaultSetting(); !bad.empty()) {
    std::fprintf(stderr,
                 "tpubench: refusing to run with %s: the benchmark measures "
                 "the default fault, precision, GEMM and plan settings\n",
                 bad.c_str());
    return 2;
  }

  try {
    std::filesystem::create_directories(config.work_dir);
    RunResult result = run(config);
    Report& report = result.report;

    for (const Metric& m : report.metrics()) {
      if (!std::isfinite(m.value)) {
        result.check_failures.push_back(m.name + " is not a finite number");
      }
    }
    const std::string gemm = nn::CurrentGemmBackendName();
    if (gemm != "builtin") {
      result.check_failures.push_back("GEMM backend is " + gemm);
    }
    const std::string provenance =
        "{\"commit\": " + JsonString(commit) +
        ", \"build_type\": " + JsonString(TPUBENCH_BUILD_TYPE) +
        ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"pool_width\": " +
        std::to_string(core::ThreadPool::Global().size()) +
        ", \"gemm_backend\": " + JsonString(gemm) +
        ", \"precision\": \"f32\", \"workload\": " +
        JsonString(config.workload) +
        ", \"seed\": " + std::to_string(config.seed) +
        ", \"seconds\": " + std::to_string(config.seconds) +
        ", \"trace\": " + trace_arg + "}";
    std::printf("provenance %s\n", provenance.c_str());

    if (config.trace) {
      SetLayerSelfTimes(report);
      FillUnexercisedLayers(report);
      const auto spans = GlobalTracer().Snapshot();
      // One file per workload, replaced by each traced run: a serving trace
      // holds hundreds of thousands of spans (~100 MB).
      const std::string path =
          config.work_dir + "/trace-" + config.workload + ".json";
      std::ofstream(path) << ChromeTraceJson(spans, provenance);
      std::printf("trace %zu spans -> %s\n", spans.size(), path.c_str());
    }

    std::fputs(report.Lines().c_str(), stdout);
    for (const std::string& failure : result.check_failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    const bool correct = result.check_failures.empty();
    std::printf("%s\n",
                report
                    .Json(correct, result.attempted, result.failed,
                          config.trace ? MetricKind::kLayer
                                       : MetricKind::kEndToEnd)
                    .c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tpubench: %s\n", e.what());
    return 1;
  }
}
