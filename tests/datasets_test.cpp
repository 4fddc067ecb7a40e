// Tests for dataset construction and the two split methods (paper §4).
#include <gtest/gtest.h>

#include <set>

#include "dataset/datasets.h"
#include "dataset/families.h"

namespace tpuperf::data {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<ir::Program>(GenerateCorpus());
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
    DatasetOptions options;
    options.max_tile_configs_per_kernel = 8;
    options.fusion_configs_per_program = 2;
    tile_ = new TileDataset(BuildTileDataset(*corpus_, *simulator_, options));
    fusion_ = new FusionDataset(
        BuildFusionDataset(*corpus_, *simulator_, *analytical_, options));
  }
  static void TearDownTestSuite() {
    delete tile_;
    delete fusion_;
    delete analytical_;
    delete simulator_;
    delete corpus_;
  }

  static std::vector<ir::Program>* corpus_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
  static TileDataset* tile_;
  static FusionDataset* fusion_;
};

std::vector<ir::Program>* DatasetTest::corpus_ = nullptr;
sim::TpuSimulator* DatasetTest::simulator_ = nullptr;
analytical::AnalyticalModel* DatasetTest::analytical_ = nullptr;
TileDataset* DatasetTest::tile_ = nullptr;
FusionDataset* DatasetTest::fusion_ = nullptr;

TEST_F(DatasetTest, RandomSplitPartitionsCorpus) {
  const SplitSpec split = RandomSplit(*corpus_, 42);
  std::set<int> all;
  for (const auto* ids : {&split.train, &split.validation, &split.test}) {
    for (const int id : *ids) {
      EXPECT_TRUE(all.insert(id).second) << "overlapping split";
      EXPECT_GE(id, 0);
      EXPECT_LT(id, static_cast<int>(corpus_->size()));
    }
  }
  EXPECT_EQ(all.size(), corpus_->size());
  EXPECT_EQ(split.test.size(), 8u);
  EXPECT_EQ(split.validation.size(), 8u);
}

TEST_F(DatasetTest, RandomSplitTestCoversTable2Families) {
  const SplitSpec split = RandomSplit(*corpus_, 42);
  std::set<std::string> families;
  for (const int id : split.test) {
    families.insert((*corpus_)[static_cast<size_t>(id)].family);
  }
  for (const char* family :
       {"ConvDrawLike", "WaveRNNLike", "NMT", "SSDLike", "RNNLM", "ResNetV1",
        "ResNetV2", "TranslateLike"}) {
    EXPECT_TRUE(families.contains(family)) << family;
  }
}

TEST_F(DatasetTest, ManualSplitHoldsOutWholeFamilies) {
  const SplitSpec split = ManualSplit(*corpus_);
  EXPECT_EQ(split.test.size(), 6u);  // Table 8: six test applications
  std::set<std::string> test_families;
  for (const int id : split.test) {
    test_families.insert((*corpus_)[static_cast<size_t>(id)].family);
  }
  // No training program comes from a held-out family.
  for (const int id : split.train) {
    EXPECT_FALSE(
        test_families.contains((*corpus_)[static_cast<size_t>(id)].family));
  }
  for (const int id : split.validation) {
    EXPECT_FALSE(
        test_families.contains((*corpus_)[static_cast<size_t>(id)].family));
  }
}

TEST_F(DatasetTest, TileDatasetWellFormed) {
  ASSERT_FALSE(tile_->kernels.empty());
  for (const auto& k : tile_->kernels) {
    EXPECT_GE(k.configs.size(), 2u);
    EXPECT_LE(static_cast<int>(k.configs.size()), 8);
    ASSERT_EQ(k.configs.size(), k.runtimes.size());
    const auto& shape =
        k.record.kernel.graph.node(k.record.kernel.graph.RootId()).shape;
    for (size_t c = 0; c < k.configs.size(); ++c) {
      EXPECT_TRUE(ir::IsValidTile(k.configs[c], shape));
      EXPECT_GT(k.runtimes[c], 0.0);
    }
    EXPECT_EQ(k.record.fingerprint, k.record.kernel.graph.Fingerprint());
    EXPECT_EQ(k.record.signature, k.record.kernel.graph.StructuralSignature());
    EXPECT_FALSE(k.record.family.empty());
  }
}

TEST_F(DatasetTest, TileDatasetSharesMeasurementsAcrossDuplicates) {
  // Kernels with equal fingerprints must carry identical configs/runtimes.
  std::map<std::uint64_t, const TileKernelData*> first;
  int duplicates = 0;
  for (const auto& k : tile_->kernels) {
    const auto [it, inserted] = first.try_emplace(k.record.fingerprint, &k);
    if (inserted) continue;
    ++duplicates;
    EXPECT_EQ(it->second->runtimes, k.runtimes);
    EXPECT_EQ(it->second->configs.size(), k.configs.size());
  }
  EXPECT_GT(duplicates, 0) << "expected repeated blocks across programs";
}

TEST_F(DatasetTest, FusionDatasetDeduplicated) {
  std::set<std::uint64_t> fingerprints;
  int default_samples = 0;
  for (const auto& s : fusion_->samples) {
    EXPECT_TRUE(fingerprints.insert(s.record.fingerprint).second);
    EXPECT_EQ(s.record.fingerprint, s.record.kernel.graph.Fingerprint());
    EXPECT_EQ(s.record.signature, s.record.kernel.graph.StructuralSignature());
    EXPECT_GT(s.runtime, 0.0);
    EXPECT_FALSE(s.record.kernel.graph.Validate().has_value());
    if (s.from_default_config) ++default_samples;
  }
  EXPECT_GT(default_samples, 100);  // calibration set exists
}

TEST_F(DatasetTest, ProgramIndexLookupsConsistent) {
  const std::vector<int> wanted = {0, 1};
  for (const int i : tile_->KernelsOfPrograms(wanted)) {
    const int pid = tile_->kernels[static_cast<size_t>(i)].record.program_id;
    EXPECT_TRUE(pid == 0 || pid == 1);
  }
  for (const int i : fusion_->SamplesOfPrograms(wanted)) {
    const int pid = fusion_->samples[static_cast<size_t>(i)].record.program_id;
    EXPECT_TRUE(pid == 0 || pid == 1);
  }
}

TEST_F(DatasetTest, CompilerDefaultTileIsValid) {
  for (size_t i = 0; i < fusion_->samples.size(); i += 97) {
    const auto& s = fusion_->samples[i];
    const auto& shape =
        s.record.kernel.graph.node(s.record.kernel.graph.RootId()).shape;
    EXPECT_TRUE(ir::IsValidTile(s.tile, shape));
  }
}

TEST_F(DatasetTest, OptionsScaleClampsAtTwo) {
  DatasetOptions options;
  options.max_tile_configs_per_kernel = 48;
  options.fusion_configs_per_program = 12;
  options.ApplyScale(0.01);
  EXPECT_EQ(options.max_tile_configs_per_kernel, 2);
  EXPECT_EQ(options.fusion_configs_per_program, 2);
  options.ApplyScale(100.0);
  EXPECT_EQ(options.max_tile_configs_per_kernel, 200);
}

// ---- Split properties on the scaled corpus ---------------------------------

// RandomSplit partitions (disjoint + exhaustive), keeps its stratification
// counts, and stays deterministic per seed at every corpus scale.
TEST(ScaledSplits, RandomSplitPropertiesHoldAtEveryScale) {
  for (const double scale : {1.0, 2.0, 4.0}) {
    const auto corpus = GenerateCorpus({.scale = scale, .seed = 9});
    const SplitSpec split = RandomSplit(corpus, 1234);
    std::set<int> all;
    for (const auto* ids : {&split.train, &split.validation, &split.test}) {
      for (const int id : *ids) {
        EXPECT_TRUE(all.insert(id).second)
            << "overlapping split at scale " << scale;
        EXPECT_GE(id, 0);
        EXPECT_LT(id, static_cast<int>(corpus.size()));
      }
    }
    EXPECT_EQ(all.size(), corpus.size()) << "scale " << scale;
    EXPECT_EQ(split.test.size(), 8u) << "scale " << scale;
    EXPECT_EQ(split.validation.size(), 8u) << "scale " << scale;
    std::set<std::string> test_families;
    for (const int id : split.test) {
      test_families.insert(corpus[static_cast<size_t>(id)].family);
    }
    EXPECT_EQ(test_families.size(), 8u) << "one variant per family";

    const SplitSpec again = RandomSplit(corpus, 1234);
    EXPECT_EQ(split.train, again.train);
    EXPECT_EQ(split.validation, again.validation);
    EXPECT_EQ(split.test, again.test);
  }
}

// ManualSplit holds out whole families at every scale: six test programs,
// no held-out family leaks into train/validation, and train + validation +
// test + dropped extra held-out variants account for the whole corpus.
TEST(ScaledSplits, ManualSplitPropertiesHoldAtEveryScale) {
  const std::set<std::string> heldout = {"RankingLike", "Feats2WaveLike",
                                         "ImageEmbedLike", "SmartComposeLike",
                                         "WaveRNNLike"};
  for (const double scale : {1.0, 2.0, 4.0}) {
    const auto corpus = GenerateCorpus({.scale = scale, .seed = 9});
    const SplitSpec split = ManualSplit(corpus);
    EXPECT_EQ(split.test.size(), 6u) << "scale " << scale;
    std::set<int> all;
    std::size_t heldout_total = 0;
    for (const auto& p : corpus) {
      if (heldout.contains(p.family)) ++heldout_total;
    }
    for (const auto* ids : {&split.train, &split.validation, &split.test}) {
      for (const int id : *ids) {
        EXPECT_TRUE(all.insert(id).second) << "overlap at scale " << scale;
      }
    }
    for (const int id : split.train) {
      EXPECT_FALSE(heldout.contains(corpus[static_cast<size_t>(id)].family));
    }
    for (const int id : split.validation) {
      EXPECT_FALSE(heldout.contains(corpus[static_cast<size_t>(id)].family));
    }
    for (const int id : split.test) {
      EXPECT_TRUE(heldout.contains(corpus[static_cast<size_t>(id)].family));
    }
    // Dropped variants are exactly the held-out families minus the six
    // test programs — nothing else leaks out of the corpus.
    EXPECT_EQ(all.size(), corpus.size() - (heldout_total - 6));
  }
}

TEST_F(DatasetTest, DeterministicRebuild) {
  DatasetOptions options;
  options.max_tile_configs_per_kernel = 4;
  options.fusion_configs_per_program = 1;
  const std::vector<ir::Program> two(corpus_->begin(), corpus_->begin() + 2);
  const auto a = BuildTileDataset(two, *simulator_, options);
  const auto b = BuildTileDataset(two, *simulator_, options);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].runtimes, b.kernels[i].runtimes);
  }
}

}  // namespace
}  // namespace tpuperf::data
