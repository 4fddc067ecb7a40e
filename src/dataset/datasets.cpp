#include "dataset/datasets.h"

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace tpuperf::data {
namespace {

// Picks one program index per requested family, preferring variant 0.
std::vector<int> OnePerFamily(std::span<const ir::Program> corpus,
                              std::span<const std::string> families,
                              std::mt19937_64& rng) {
  std::vector<int> picked;
  for (const std::string& family : families) {
    std::vector<int> members;
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (corpus[i].family == family) members.push_back(static_cast<int>(i));
    }
    if (members.empty()) continue;
    std::uniform_int_distribution<size_t> pick(0, members.size() - 1);
    picked.push_back(members[pick(rng)]);
  }
  return picked;
}

}  // namespace

void DatasetOptions::ApplyScale(double scale) {
  const auto scaled = [scale](int v) {
    return std::max(2, static_cast<int>(v * scale));
  };
  max_tile_configs_per_kernel = scaled(max_tile_configs_per_kernel);
  fusion_configs_per_program = scaled(fusion_configs_per_program);
}

SplitSpec RandomSplit(std::span<const ir::Program> corpus,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string test_families[] = {
      "ConvDrawLike", "WaveRNNLike", "NMT",      "SSDLike",
      "RNNLM",        "ResNetV1",    "ResNetV2", "TranslateLike"};
  const std::string val_families[] = {
      "InceptionLike",  "TransformerLM",  "AutoCompletionLM",
      "SmartComposeLike", "Char2FeatsLike", "RankingLike",
      "ImageEmbedLike", "Feats2WaveLike"};
  SplitSpec split;
  split.test = OnePerFamily(corpus, test_families, rng);
  split.validation = OnePerFamily(corpus, val_families, rng);
  std::set<int> held(split.test.begin(), split.test.end());
  held.insert(split.validation.begin(), split.validation.end());
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!held.contains(static_cast<int>(i))) {
      split.train.push_back(static_cast<int>(i));
    }
  }
  return split;
}

SplitSpec ManualSplit(std::span<const ir::Program> corpus) {
  // Families held out for their (subjective) dissimilarity to the rest;
  // test applications follow Table 8: Ranking, Feats2Wave, ImageEmbed,
  // SmartCompose, WaveRNN 1, WaveRNN 2.
  const std::set<std::string> heldout_families = {
      "RankingLike", "Feats2WaveLike", "ImageEmbedLike", "SmartComposeLike",
      "WaveRNNLike"};
  SplitSpec split;
  std::map<std::string, int> test_taken;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const ir::Program& p = corpus[i];
    if (heldout_families.contains(p.family)) {
      const int allowed = p.family == "WaveRNNLike" ? 2 : 1;
      if (test_taken[p.family] < allowed) {
        split.test.push_back(static_cast<int>(i));
        ++test_taken[p.family];
      }
      // Remaining variants of held-out families are dropped entirely.
      continue;
    }
    split.train.push_back(static_cast<int>(i));
  }
  // Move the last program of eight distinct training families to validation.
  std::map<std::string, int> last_of_family;
  for (const int idx : split.train) {
    last_of_family[corpus[static_cast<size_t>(idx)].family] = idx;
  }
  std::set<int> val;
  for (const auto& [family, idx] : last_of_family) {
    if (val.size() >= 8) break;
    val.insert(idx);
  }
  split.validation.assign(val.begin(), val.end());
  std::erase_if(split.train, [&](int idx) { return val.contains(idx); });
  return split;
}

std::size_t TileDataset::TotalSamples() const {
  std::size_t n = 0;
  for (const auto& k : kernels) n += k.runtimes.size();
  return n;
}

std::vector<int> TileDataset::KernelsOfPrograms(
    std::span<const int> program_ids) const {
  const std::unordered_set<int> wanted(program_ids.begin(), program_ids.end());
  std::vector<int> out;
  for (size_t i = 0; i < kernels.size(); ++i) {
    if (wanted.contains(kernels[i].record.program_id)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

std::vector<int> FusionDataset::SamplesOfPrograms(
    std::span<const int> program_ids) const {
  const std::unordered_set<int> wanted(program_ids.begin(), program_ids.end());
  std::vector<int> out;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (wanted.contains(samples[i].record.program_id)) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

ir::TileConfig CompilerDefaultTile(const ir::Graph& kernel,
                                   const sim::TpuSimulator& simulator,
                                   const analytical::AnalyticalModel& analytical,
                                   int max_enumerated_tiles) {
  const auto candidates = simulator.EnumerateTiles(kernel, max_enumerated_tiles);
  if (candidates.empty()) return simulator.DefaultTile(kernel);
  return analytical.SelectBestTile(kernel, candidates);
}

TileDataset BuildTileDataset(std::span<const ir::Program> corpus,
                             const sim::TpuSimulator& simulator,
                             const DatasetOptions& options) {
  TileDataset dataset;
  std::mt19937_64 rng(options.seed);
  // Measurement cache: identical kernels (same fingerprint) share configs
  // and runtimes — common because conv blocks repeat within a program.
  std::unordered_map<std::uint64_t, int> measured;  // fingerprint -> index

  for (size_t pid = 0; pid < corpus.size(); ++pid) {
    const ir::Program& program = corpus[pid];
    const EdgeList edges = EdgeList::FromGraph(program.graph);
    const FusionConfig config = DefaultFusion(program.graph, edges);
    const auto kernels = ApplyFusion(program.graph, edges, config);

    for (const ir::Kernel& kernel : kernels) {
      TileKernelData data;
      const ir::Graph::Hashes hashes = kernel.graph.FingerprintAndSignature();
      data.record.fingerprint = hashes.fingerprint;
      data.record.signature = hashes.signature;
      data.record.program_id = static_cast<int>(pid);
      data.record.family = program.family;

      const auto cached = measured.find(data.record.fingerprint);
      if (cached != measured.end()) {
        const TileKernelData& prior =
            dataset.kernels[static_cast<size_t>(cached->second)];
        data.record.kernel = prior.record.kernel;
        data.record.signature = prior.record.signature;
        data.configs = prior.configs;
        data.runtimes = prior.runtimes;
        dataset.kernels.push_back(std::move(data));
        continue;
      }

      auto candidates =
          simulator.EnumerateTiles(kernel.graph, options.max_enumerated_tiles);
      if (static_cast<int>(candidates.size()) <
          2) {  // kernels without a real tiling choice carry no signal
        continue;
      }
      if (static_cast<int>(candidates.size()) >
          options.max_tile_configs_per_kernel) {
        std::shuffle(candidates.begin(), candidates.end(), rng);
        candidates.resize(
            static_cast<size_t>(options.max_tile_configs_per_kernel));
      }
      data.record.kernel = kernel;
      for (const ir::TileConfig& tile : candidates) {
        data.configs.push_back(tile);
        data.runtimes.push_back(simulator.Measure(kernel.graph, tile));
      }
      measured.emplace(data.record.fingerprint,
                       static_cast<int>(dataset.kernels.size()));
      dataset.kernels.push_back(std::move(data));
    }
  }
  return dataset;
}

FusionDataset BuildFusionDataset(std::span<const ir::Program> corpus,
                                 const sim::TpuSimulator& simulator,
                                 const analytical::AnalyticalModel& analytical,
                                 const DatasetOptions& options) {
  FusionDataset dataset;
  std::mt19937_64 rng(options.seed ^ 0xF051ull);
  std::unordered_set<std::uint64_t> seen;

  for (size_t pid = 0; pid < corpus.size(); ++pid) {
    const ir::Program& program = corpus[pid];
    const EdgeList edges = EdgeList::FromGraph(program.graph);

    const auto add_kernels = [&](const std::vector<ir::Kernel>& kernels,
                                 bool from_default) {
      for (const ir::Kernel& kernel : kernels) {
        const ir::Graph::Hashes hashes = kernel.graph.FingerprintAndSignature();
        // duplicate elimination (§4)
        if (!seen.insert(hashes.fingerprint).second) continue;
        FusionSample sample;
        sample.record.kernel = kernel;
        sample.record.fingerprint = hashes.fingerprint;
        sample.record.signature = hashes.signature;
        sample.record.program_id = static_cast<int>(pid);
        sample.record.family = program.family;
        sample.tile = CompilerDefaultTile(kernel.graph, simulator, analytical,
                                          options.max_enumerated_tiles / 2);
        sample.runtime = simulator.Measure(kernel.graph, sample.tile);
        sample.from_default_config = from_default;
        dataset.samples.push_back(std::move(sample));
      }
    };

    // The default configuration's kernels double as the §5.2 calibration set.
    const FusionConfig default_config = DefaultFusion(program.graph, edges);
    add_kernels(ApplyFusion(program.graph, edges, default_config), true);

    std::uniform_real_distribution<double> prob(0.15, 0.85);
    for (int c = 0; c < options.fusion_configs_per_program; ++c) {
      const FusionConfig config =
          RandomFusion(program.graph, edges, rng, prob(rng));
      add_kernels(ApplyFusion(program.graph, edges, config), false);
    }
  }
  return dataset;
}

}  // namespace tpuperf::data
