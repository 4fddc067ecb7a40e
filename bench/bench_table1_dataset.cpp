// Reproduces Table 1: the number of unique programs and kernels in the
// fusion and tile-size datasets under both split methods.
//
// The paper's corpus is 104 production/research programs expanded to 25M
// tile-size samples and 208M fusion samples on a 50-host TPU fleet; this
// reproduction keeps the 104-program corpus and scales sample counts to one
// CPU (see DESIGN.md). The structure — two tasks x two splits x three sets —
// is identical.
#include <cstdio>
#include <set>

#include "bench/common.h"

namespace tpuperf::bench {
namespace {

struct SetCounts {
  int programs = 0;
  std::size_t tile_kernels = 0;
  std::size_t tile_samples = 0;
  std::size_t fusion_kernels = 0;
};

SetCounts Count(const data::TileDataset& tile, const data::FusionDataset& fusion,
                std::span<const int> ids) {
  SetCounts c;
  c.programs = static_cast<int>(ids.size());
  const auto tile_ids = tile.KernelsOfPrograms(ids);
  c.tile_kernels = tile_ids.size();
  for (const int i : tile_ids) {
    c.tile_samples += tile.kernels[static_cast<size_t>(i)].runtimes.size();
  }
  c.fusion_kernels = fusion.SamplesOfPrograms(ids).size();
  return c;
}

void PrintSplit(const char* name, const data::SplitSpec& split,
                const data::TileDataset& tile,
                const data::FusionDataset& fusion) {
  std::printf("\n%s\n", name);
  std::printf("  %-12s %9s %12s %13s %14s\n", "Set", "Programs",
              "TileKernels", "TileSamples", "FusionKernels");
  const auto row = [&](const char* set, std::span<const int> ids,
                       const char* paper) {
    const SetCounts c = Count(tile, fusion, ids);
    std::printf("  %-12s %9d %12zu %13zu %14zu   %s\n", set, c.programs,
                c.tile_kernels, c.tile_samples, c.fusion_kernels, paper);
  };
  row("Train", split.train, "[paper: 93 programs, 21.8M-22.9M / 157.5M-190.2M]");
  row("Validation", split.validation, "[paper: 8 programs, 1.4M-1.6M / 11.2M-30.1M]");
  row("Test", split.test, "[paper: 6-8 programs, 0.5M-1.4M / 6.6M-20.3M]");
}

}  // namespace
}  // namespace tpuperf::bench

int main() {
  using namespace tpuperf;
  using namespace tpuperf::bench;

  Env env = MakeEnv();
  analytical::AnalyticalModel analytical(env.sim_v2.target());
  const auto tile = BuildTile(env, env.sim_v2, analytical);
  const auto fusion = BuildFusion(env, env.sim_v2, analytical);

  PrintBanner("Table 1 — dataset sizes",
              "Unique programs and kernels per set, both split methods, both "
              "tasks (counts scaled to one CPU host; paper used 50 TPU hosts).");

  std::printf("Corpus: %zu programs across %zu families; %zu tile-size "
              "samples, %zu unique fusion kernels total.\n",
              env.corpus.size(), data::FamilyNames().size(),
              tile.TotalSamples(), fusion.samples.size());

  PrintSplit("Random split method", env.random_split, tile, fusion);
  PrintSplit("Manual split method", env.manual_split, tile, fusion);

  // Kernel-size statistics quoted in §4 ("41 nodes on average, 1 to 1000").
  std::size_t total_nodes = 0;
  int max_nodes = 0;
  for (const auto& k : tile.kernels) {
    total_nodes += static_cast<std::size_t>(k.record.kernel.graph.num_nodes());
    max_nodes = std::max(max_nodes, k.record.kernel.graph.num_nodes());
  }
  std::printf("\nNodes per kernel: mean %.1f, max %d  [paper: mean 41, range "
              "1-1000]\n",
              tile.kernels.empty()
                  ? 0.0
                  : static_cast<double>(total_nodes) / tile.kernels.size(),
              max_nodes);

  // Warm-cache runs must never re-simulate or re-featurize; the report
  // enforces the featurizer-invocations==0 guarantee.
  return ReportDatasetStore(/*enforce_warm=*/true) ? 0 : 1;
}
