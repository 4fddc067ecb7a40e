#include "bench/common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "core/env.h"
#include "core/trainer.h"
#include "features/featurizer.h"

namespace tpuperf::bench {
namespace {

// Loaded stores are registered here and served through one union source so
// every PreparedCache (trainers, evaluators) sees all of them.
class UnionFeatureSource final : public feat::KernelFeatureSource {
 public:
  void Register(std::shared_ptr<const data::StoredFeatures> store) {
    stores_.push_back(std::move(store));
  }

  std::optional<feat::KernelFeatures> Lookup(
      std::uint64_t fingerprint, std::uint64_t structural_sig) const override {
    for (const auto& store : stores_) {
      if (std::optional<feat::KernelFeatures> kf =
              store->Lookup(fingerprint, structural_sig)) {
        return kf;
      }
    }
    return std::nullopt;
  }

 private:
  std::vector<std::shared_ptr<const data::StoredFeatures>> stores_;
};

UnionFeatureSource& Union() {
  static UnionFeatureSource source;
  return source;
}

std::vector<StoreBuildInfo>& MutableStoreBuilds() {
  static std::vector<StoreBuildInfo> builds;
  return builds;
}

void NoteStoreBuild(const char* task, const std::string& target,
                    const data::StoreLoadStats& stats,
                    std::shared_ptr<data::StoredFeatures> features) {
  MutableStoreBuilds().push_back(
      {task, target, stats.cache_hit, stats.seconds, stats.path});
  if (stats.path.empty()) {
    std::printf("[dataset store] %s/%s: no TPUPERF_DATASET_DIR, built "
                "in-process (%.2fs)\n",
                task, target.c_str(), stats.seconds);
  } else if (stats.cache_hit) {
    std::printf("[dataset store] %s/%s: warm hit, loaded %s in %.3fs\n", task,
                target.c_str(), stats.path.c_str(), stats.seconds);
  } else {
    std::printf("[dataset store] %s/%s: cold miss, built and wrote %s in "
                "%.2fs\n",
                task, target.c_str(), stats.path.c_str(), stats.seconds);
  }
  if (features != nullptr && !features->empty()) {
    Union().Register(std::move(features));
    feat::SetGlobalKernelFeatureSource(&Union());
  }
}

std::string ReadFileIfExists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {};
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Finds `"key": <number>` in machine-written JSON; NaN when absent.
double FindJsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::atof(text.c_str() + pos + needle.size());
}

// Removes a top-level `"key": <object-or-scalar>` entry (plus the comma
// that joined it) from machine-written JSON with no braces inside strings.
std::string RemoveJsonKey(std::string text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t key_pos = text.find(needle);
  if (key_pos == std::string::npos) return text;
  std::size_t value_end = key_pos + needle.size();
  while (value_end < text.size() && std::isspace(static_cast<unsigned char>(text[value_end]))) ++value_end;
  if (value_end < text.size() && text[value_end] == '{') {
    int depth = 0;
    do {
      if (text[value_end] == '{') ++depth;
      if (text[value_end] == '}') --depth;
      ++value_end;
    } while (value_end < text.size() && depth > 0);
  } else {
    while (value_end < text.size() && text[value_end] != ',' &&
           text[value_end] != '}') {
      ++value_end;
    }
  }
  std::size_t cut_begin = key_pos;
  std::size_t cut_end = value_end;
  // Swallow the separating comma: the one after the value, else the one
  // before the key (when this entry was last).
  std::size_t after = cut_end;
  while (after < text.size() && std::isspace(static_cast<unsigned char>(text[after]))) ++after;
  if (after < text.size() && text[after] == ',') {
    cut_end = after + 1;
  } else {
    std::size_t before = cut_begin;
    while (before > 0 && std::isspace(static_cast<unsigned char>(text[before - 1]))) --before;
    if (before > 0 && text[before - 1] == ',') cut_begin = before - 1;
  }
  text.erase(cut_begin, cut_end - cut_begin);
  return text;
}

// The machine-written report never puts braces inside strings, so a quick
// balance scan is enough to spot a file truncated by an interrupted run.
// `empty` text is fine (first write).
bool JsonLooksWellFormed(const std::string& text) {
  if (text.empty()) return true;
  std::size_t first = 0;
  while (first < text.size() &&
         std::isspace(static_cast<unsigned char>(text[first]))) {
    ++first;
  }
  if (first >= text.size() || text[first] != '{') return false;
  int depth = 0;
  std::size_t close = std::string::npos;
  for (std::size_t i = first; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}') {
      --depth;
      if (depth < 0) return false;
      if (depth == 0) close = i;
    }
  }
  if (depth != 0 || close == std::string::npos) return false;
  // Nothing but whitespace may follow the closing brace.
  for (std::size_t i = close + 1; i < text.size(); ++i) {
    if (!std::isspace(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

}  // namespace

double ReproScale() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

std::string DatasetDir() {
  const char* env = std::getenv("TPUPERF_DATASET_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

Env MakeEnv() {
  Env env;
  env.scale = ReproScale();
  env.dataset_dir = DatasetDir();
  env.options.max_tile_configs_per_kernel = 32;
  env.options.fusion_configs_per_program = 10;
  env.options.ApplyScale(env.scale);
  // Scales above 1 also grow the corpus (~scale x variants per family);
  // below 1 only the per-program budgets shrink — the split methods need
  // every family present. The corpus parameters ALSO go into
  // env.options so the dataset-store cache key covers them: two runs at
  // different REPRO_SCALE generate different corpora and must never share
  // a cached store (they used to — the tier-extension seed and scale were
  // not hashed).
  env.options.corpus_scale = std::max(1.0, env.scale);
  env.options.corpus_seed = env.options.seed;
  env.options.store_part_bytes = static_cast<std::uint64_t>(core::EnvInt(
      "TPUPERF_STORE_PART_BYTES", 0, 0, std::int64_t{1} << 40));
  env.corpus = data::GenerateCorpus(
      {.scale = env.options.corpus_scale, .seed = env.options.corpus_seed});
  env.random_split = data::RandomSplit(env.corpus, /*seed=*/1234);
  env.manual_split = data::ManualSplit(env.corpus);
  return env;
}

data::TileDataset BuildTile(const Env& env, const sim::TpuSimulator& sim,
                            const analytical::AnalyticalModel& analytical) {
  (void)analytical;
  std::shared_ptr<data::StoredFeatures> features;
  data::StoreLoadStats stats;
  auto dataset = data::LoadOrBuildTileDataset(env.dataset_dir, env.corpus,
                                              sim, env.options, &features,
                                              &stats);
  NoteStoreBuild("tile", sim.target().name, stats, std::move(features));
  return dataset;
}

data::FusionDataset BuildFusion(const Env& env, const sim::TpuSimulator& sim,
                                analytical::AnalyticalModel& analytical) {
  std::shared_ptr<data::StoredFeatures> features;
  data::StoreLoadStats stats;
  auto dataset = data::LoadOrBuildFusionDataset(env.dataset_dir, env.corpus,
                                                sim, analytical, env.options,
                                                &features, &stats);
  NoteStoreBuild("fusion", sim.target().name, stats, std::move(features));
  return dataset;
}

const std::vector<StoreBuildInfo>& StoreBuilds() {
  return MutableStoreBuilds();
}

bool ReportDatasetStore(bool enforce_warm) {
  const auto& builds = MutableStoreBuilds();
  if (builds.empty()) return true;
  double total = 0;
  bool all_hit = true;
  std::printf("\nDataset store summary:\n");
  for (const auto& b : builds) {
    total += b.seconds;
    all_hit = all_hit && b.cache_hit;
    std::printf("  %-6s %-6s %-4s %8.3fs  %s\n", b.task.c_str(),
                b.target.c_str(), b.cache_hit ? "warm" : "cold", b.seconds,
                b.path.empty() ? "(in-process)" : b.path.c_str());
  }
  const long invocations = feat::FeaturizeKernelInvocations();
  std::printf("  dataset-ready in %.3fs total (%s); featurizer invoked %ld "
              "times this process\n",
              total, all_hit ? "all warm" : "cold or mixed", invocations);
  if (enforce_warm && all_hit && invocations > 0) {
    std::printf("  ERROR: warm-cache run re-featurized %ld kernels — the "
                "store read path is broken\n",
                invocations);
    return false;
  }
  return true;
}

std::string PreservedTopLevelJson(const std::string& key) {
  return ExtractJsonObject(ReadFileIfExists("BENCH_results.json"), key);
}

std::string ExtractJsonObject(const std::string& text,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t key_pos = text.find(needle);
  if (key_pos == std::string::npos) return {};
  std::size_t begin = key_pos + needle.size();
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  if (begin >= text.size() || text[begin] != '{') return {};
  std::size_t end = begin;
  int depth = 0;
  do {
    if (text[end] == '{') ++depth;
    if (text[end] == '}') --depth;
    ++end;
  } while (end < text.size() && depth > 0);
  if (depth != 0) return {};
  return text.substr(begin, end - begin);
}

void WriteStoreReportJson() {
  const auto& builds = MutableStoreBuilds();
  if (builds.empty() || DatasetDir().empty()) return;
  double total = 0;
  bool all_hit = true;
  bool all_miss = true;
  for (const auto& b : builds) {
    total += b.seconds;
    all_hit = all_hit && b.cache_hit;
    all_miss = all_miss && !b.cache_hit;
  }
  const std::string path = "BENCH_results.json";
  const std::string old_text = ReadFileIfExists(path);
  // The cold numbers survive warm reruns so the file shows the pair; a
  // mixed run (some hits, some misses — e.g. a bench that needs stores a
  // previous bench did not populate) records neither total, and the
  // speedup is only emitted when the warm and cold runs covered the same
  // number of builds (same workload shape).
  double cold = FindJsonNumber(old_text, "cold_dataset_ready_seconds");
  double warm = FindJsonNumber(old_text, "warm_dataset_ready_seconds");
  double cold_builds = FindJsonNumber(old_text, "cold_builds");
  double warm_builds = FindJsonNumber(old_text, "warm_builds");
  if (all_hit) {
    warm = total;
    warm_builds = static_cast<double>(builds.size());
  } else if (all_miss) {
    cold = total;
    cold_builds = static_cast<double>(builds.size());
  }

  std::ostringstream value;
  value << "{\n";
  value << "    \"builds\": " << builds.size() << ",\n";
  value << "    \"repro_scale\": " << ReproScale() << ",\n";
  value << "    \"last_run_warm\": " << (all_hit ? "true" : "false") << ",\n";
  if (!std::isnan(cold)) {
    value << "    \"cold_builds\": " << cold_builds << ",\n";
    value << "    \"cold_dataset_ready_seconds\": " << cold << ",\n";
  }
  if (!std::isnan(warm)) {
    value << "    \"warm_builds\": " << warm_builds << ",\n";
    value << "    \"warm_dataset_ready_seconds\": " << warm << ",\n";
  }
  if (!std::isnan(cold) && !std::isnan(warm) && warm > 0 &&
      cold_builds == warm_builds) {
    value << "    \"warm_vs_cold_speedup\": " << cold / warm << ",\n";
  }
  value << "    \"featurizer_invocations\": "
        << feat::FeaturizeKernelInvocations() << "\n  }";

  MergeTopLevelJsonKey(path, "dataset_store", value.str());
}

void MergeTopLevelJsonKey(const std::string& path, const std::string& key,
                          const std::string& value_json) {
  std::string existing = ReadFileIfExists(path);
  if (!JsonLooksWellFormed(existing)) {
    // An interrupted run left a torn file. Merging into it used to
    // silently drop whichever keys fell after the tear; start over loudly
    // instead so the loss is visible (and bounded to this one file).
    std::fprintf(stderr,
                 "[bench] WARNING: %s is malformed (interrupted run?) — "
                 "rewriting it from scratch; previous sections are lost\n",
                 path.c_str());
    existing.clear();
  }
  std::string text = RemoveJsonKey(std::move(existing), key);
  const std::string entry = "  \"" + key + "\": " + value_json;
  std::string out;
  const std::size_t end = text.rfind('}');
  if (text.empty() || text[0] != '{' || end == std::string::npos) {
    out = "{\n" + entry + "\n}\n";
  } else {
    std::string head = text.substr(0, end);
    while (!head.empty() && std::isspace(static_cast<unsigned char>(head.back()))) head.pop_back();
    const bool has_other_keys = head.find(':') != std::string::npos;
    if (!head.empty() && head.back() == ',') head.pop_back();
    out = head + (has_other_keys ? ",\n" : "\n") + entry + "\n}\n";
  }
  std::ofstream os(path, std::ios::trunc);
  os << out;
}

std::string MergeIntoJsonObject(const std::string& object_json,
                                const std::string& key,
                                const std::string& value_json) {
  std::string text = object_json;
  if (!JsonLooksWellFormed(text)) text.clear();
  text = RemoveJsonKey(std::move(text), key);
  const std::string entry = "    \"" + key + "\": " + value_json;
  const std::size_t end = text.rfind('}');
  if (text.empty() || text[0] != '{' || end == std::string::npos) {
    return "{\n" + entry + "\n  }";
  }
  std::string head = text.substr(0, end);
  while (!head.empty() &&
         std::isspace(static_cast<unsigned char>(head.back()))) {
    head.pop_back();
  }
  const bool has_other_keys = head.find(':') != std::string::npos;
  if (!head.empty() && head.back() == ',') head.pop_back();
  return head + (has_other_keys ? ",\n" : "\n") + entry + "\n  }";
}

void CalibrateAnalytical(analytical::AnalyticalModel& analytical,
                         const data::FusionDataset& dataset,
                         std::span<const int> program_ids) {
  std::vector<analytical::AnalyticalModel::CalibrationSample> samples;
  for (const int pid : program_ids) {
    for (const auto& s : dataset.samples) {
      if (s.record.program_id != pid || !s.from_default_config) continue;
      samples.push_back({&s.record.kernel.graph, s.tile, s.runtime});
    }
  }
  analytical.CalibrateFusionCoefficients(samples);
}

TrainedModel TrainTile(core::ModelConfig config, const data::TileDataset& ds,
                       std::span<const int> train_ids, double scale) {
  config.train_steps =
      std::max(200, static_cast<int>(config.train_steps * scale));
  TrainedModel out;
  out.model = std::make_unique<core::LearnedCostModel>(config);
  out.cache = std::make_unique<core::PreparedCache>(*out.model);
  out.stats = core::TrainTileTask(*out.model, ds, train_ids, *out.cache);
  return out;
}

TrainedModel TrainFusion(core::ModelConfig config,
                         const data::FusionDataset& ds,
                         std::span<const int> train_ids, double scale) {
  config.train_steps =
      std::max(200, static_cast<int>(config.train_steps * scale));
  TrainedModel out;
  out.model = std::make_unique<core::LearnedCostModel>(config);
  out.cache = std::make_unique<core::PreparedCache>(*out.model);
  out.stats = core::TrainFusionTask(*out.model, ds, train_ids, *out.cache);
  return out;
}

void PrintBanner(const std::string& title, const std::string& description) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title.c_str());
  if (!description.empty()) std::printf("%s\n", description.c_str());
  std::printf("(REPRO_SCALE=%.2f; paper reference values in brackets)\n",
              ReproScale());
  PrintRule();
}

void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

std::string Num(double v, int width, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

}  // namespace tpuperf::bench
