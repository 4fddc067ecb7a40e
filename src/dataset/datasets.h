// Dataset construction for the two tasks (paper §4).
//
// Tile-size dataset: compile each program with the default fusion
// heuristic, decompose into kernels, enumerate valid tile sizes per kernel,
// and measure each (minimum of three runs) on the simulated TPU.
//
// Fusion dataset: run random fusion configurations per program, decompose
// into kernels, measure each kernel under its compiler-chosen (analytical
// best) tile, and deduplicate kernels by structural fingerprint.
//
// Counts are scaled to laptop size (the paper used 25M/208M samples across
// 50 accelerator hosts); REPRO_SCALE multiplies the per-kernel /
// per-program budgets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analytical/analytical_model.h"
#include "dataset/fusion.h"
#include "ir/program.h"
#include "ir/tile.h"
#include "sim/simulator.h"

namespace tpuperf::data {

// Split of program indices into train/validation/test.
struct SplitSpec {
  std::vector<int> train;
  std::vector<int> validation;
  std::vector<int> test;
};

// Stratified random split (paper §4 "random split method"): the test set
// holds one variant from each of the eight application families reported in
// Table 2 (ConvDraw, WaveRNN, NMT, SSD, RNN, ResNet v1/v2, Translate);
// validation gets one program from eight other families; everything else
// trains.
SplitSpec RandomSplit(std::span<const ir::Program> corpus, std::uint64_t seed);

// Manual split (paper §4): entire families chosen for dissimilarity are
// held out — Ranking, Feats2Wave, ImageEmbed, SmartCompose and WaveRNN —
// matching Table 8's six test applications.
SplitSpec ManualSplit(std::span<const ir::Program> corpus);

// A kernel with both of its graph's hashes (ir::Graph::Fingerprint and
// StructuralSignature, set together from one walk), so lookups keyed by
// them never walk the graph again.
struct KernelRecord {
  ir::Kernel kernel;
  std::uint64_t fingerprint = 0;
  std::uint64_t signature = 0;
  int program_id = -1;
  std::string family;
};

// One kernel of the tile-size dataset with its measured tile configs.
struct TileKernelData {
  KernelRecord record;
  std::vector<ir::TileConfig> configs;
  std::vector<double> runtimes;  // seconds, min-of-3 measurements
};

struct TileDataset {
  std::vector<TileKernelData> kernels;

  std::size_t TotalSamples() const;
  // Indices of kernels belonging to the given programs.
  std::vector<int> KernelsOfPrograms(std::span<const int> program_ids) const;
};

// One (deduplicated) kernel of the fusion dataset.
struct FusionSample {
  KernelRecord record;
  ir::TileConfig tile;   // compiler-chosen tile
  double runtime = 0;    // seconds
  bool from_default_config = false;  // part of the calibration set (§5.2)
};

struct FusionDataset {
  std::vector<FusionSample> samples;

  std::vector<int> SamplesOfPrograms(std::span<const int> program_ids) const;
};

struct DatasetOptions {
  // Max measured tile configs per kernel (the paper measured "as many as
  // possible within 30 minutes across 50 hosts").
  int max_tile_configs_per_kernel = 48;
  // Candidate pool size the tile enumerator may return per kernel.
  int max_enumerated_tiles = 512;
  // Random fusion configurations sampled per program (paper: 50,000).
  int fusion_configs_per_program = 12;
  std::uint64_t seed = 0x5EEDull;

  // The CorpusOptions that generated the corpus these datasets are built
  // from. Two corpora can share a program prefix (tier extension grows the
  // corpus in place), so the dataset-store cache key MUST fold these in —
  // hashing only the program list would let a scaled-up corpus alias a
  // stale store written at a smaller scale with a colliding prefix.
  double corpus_scale = 1.0;
  std::uint64_t corpus_seed = 0;

  // When > 0, dataset stores written for these options are sharded into
  // part files of roughly this many bytes behind a manifest (see
  // dataset/store.h). Purely a storage layout knob: it does NOT enter the
  // cache key, because the logical dataset is identical either way.
  std::uint64_t store_part_bytes = 0;

  // Multiplies the budgets above; wired to the REPRO_SCALE env var in
  // benches.
  void ApplyScale(double scale);
};

TileDataset BuildTileDataset(std::span<const ir::Program> corpus,
                             const sim::TpuSimulator& simulator,
                             const DatasetOptions& options);

FusionDataset BuildFusionDataset(std::span<const ir::Program> corpus,
                                 const sim::TpuSimulator& simulator,
                                 const analytical::AnalyticalModel& analytical,
                                 const DatasetOptions& options);

// The compiler-chosen tile for a kernel: analytical-model best among the
// enumerated candidates (what XLA does by default, §2.3).
ir::TileConfig CompilerDefaultTile(const ir::Graph& kernel,
                                   const sim::TpuSimulator& simulator,
                                   const analytical::AnalyticalModel& analytical,
                                   int max_enumerated_tiles = 256);

}  // namespace tpuperf::data
