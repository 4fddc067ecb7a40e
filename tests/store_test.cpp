// Tests for the on-disk featurized dataset store (src/dataset/store.h):
// bit-exact round trips for every record type, loud rejection of corrupted
// or incompatible files (by the whole-store read and, for sharded stores,
// the streaming sampler too), program identity across serialization, and
// training-parity from a warm store at pool widths 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "dataset/families.h"
#include "dataset/store.h"
#include "dataset/streaming.h"
#include "dataset/wire.h"
#include "features/featurizer.h"

namespace tpuperf::data {
namespace {

namespace fs = std::filesystem;

// ---- Fixture: a small corpus, its datasets, and a scratch directory --------

class StoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new std::vector<ir::Program>();
    for (const char* family : {"RNNLM", "RankingLike", "Char2FeatsLike",
                               "NMT"}) {
      corpus_->push_back(BuildProgram(family, 0));
      corpus_->push_back(BuildProgram(family, 1));
    }
    simulator_ = new sim::TpuSimulator(sim::TpuTarget::V2());
    analytical_ = new analytical::AnalyticalModel(sim::TpuTarget::V2());
    options_ = new DatasetOptions();
    options_->max_tile_configs_per_kernel = 6;
    options_->fusion_configs_per_program = 2;
    tile_ = new TileDataset(BuildTileDataset(*corpus_, *simulator_, *options_));
    fusion_ = new FusionDataset(
        BuildFusionDataset(*corpus_, *simulator_, *analytical_, *options_));
  }
  static void TearDownTestSuite() {
    delete fusion_;
    delete tile_;
    delete options_;
    delete analytical_;
    delete simulator_;
    delete corpus_;
  }

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tpuperf_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::vector<ir::Program>* corpus_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
  static DatasetOptions* options_;
  static TileDataset* tile_;
  static FusionDataset* fusion_;
  fs::path dir_;
};

std::vector<ir::Program>* StoreTest::corpus_ = nullptr;
sim::TpuSimulator* StoreTest::simulator_ = nullptr;
analytical::AnalyticalModel* StoreTest::analytical_ = nullptr;
DatasetOptions* StoreTest::options_ = nullptr;
TileDataset* StoreTest::tile_ = nullptr;
FusionDataset* StoreTest::fusion_ = nullptr;

// ---- Bit-exact comparison helpers ------------------------------------------

void ExpectGraphsEqual(const ir::Graph& a, const ir::Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int i = 0; i < a.num_nodes(); ++i) {
    const ir::Node& na = a.node(i);
    const ir::Node& nb = b.node(i);
    EXPECT_EQ(na.op, nb.op) << "node " << i;
    EXPECT_EQ(na.shape, nb.shape) << "node " << i;
    EXPECT_EQ(na.shape.minor_to_major(), nb.shape.minor_to_major());
    EXPECT_EQ(na.operands, nb.operands) << "node " << i;
    EXPECT_EQ(na.window, nb.window) << "node " << i;
    EXPECT_EQ(na.reduce_dims, nb.reduce_dims) << "node " << i;
    EXPECT_EQ(na.feature_in, nb.feature_in) << "node " << i;
    EXPECT_EQ(na.feature_out, nb.feature_out) << "node " << i;
    EXPECT_EQ(na.is_output, nb.is_output) << "node " << i;
  }
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.StructuralSignature(), b.StructuralSignature());
}

void ExpectRecordsEqual(const KernelRecord& a, const KernelRecord& b) {
  ExpectGraphsEqual(a.kernel.graph, b.kernel.graph);
  EXPECT_EQ(a.kernel.kind, b.kernel.kind);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  // Each record carries its graph's signature, built or loaded.
  EXPECT_EQ(a.signature, a.kernel.graph.StructuralSignature());
  EXPECT_EQ(b.signature, b.kernel.graph.StructuralSignature());
  EXPECT_EQ(a.program_id, b.program_id);
  EXPECT_EQ(a.family, b.family);
}

void ExpectTileKernelsEqual(const TileKernelData& a, const TileKernelData& b) {
  ExpectRecordsEqual(a.record, b.record);
  ASSERT_EQ(a.configs.size(), b.configs.size());
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    EXPECT_EQ(a.configs[i], b.configs[i]);
  }
  ASSERT_EQ(a.runtimes.size(), b.runtimes.size());
  for (std::size_t i = 0; i < a.runtimes.size(); ++i) {
    // EXPECT_EQ on doubles is exact: the round trip must be bit-for-bit.
    EXPECT_EQ(a.runtimes[i], b.runtimes[i]);
  }
}

void ExpectFusionSamplesEqual(const FusionSample& a, const FusionSample& b) {
  ExpectRecordsEqual(a.record, b.record);
  EXPECT_EQ(a.tile, b.tile);
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.from_default_config, b.from_default_config);
}

void ExpectFeaturizedEqual(const FeaturizedKernel& a,
                           const FeaturizedKernel& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.structural_sig, b.structural_sig);
  EXPECT_EQ(a.features.opcode_ids, b.features.opcode_ids);
  EXPECT_EQ(a.features.operand_lists, b.features.operand_lists);
  ASSERT_EQ(a.features.node_scalars.size(), b.features.node_scalars.size());
  for (std::size_t i = 0; i < a.features.node_scalars.size(); ++i) {
    EXPECT_EQ(a.features.node_scalars[i], b.features.node_scalars[i]);
  }
  EXPECT_EQ(a.features.static_perf, b.features.static_perf);
}

FeaturizedKernel Featurize(const KernelRecord& record) {
  return {record.fingerprint, record.kernel.graph.StructuralSignature(),
          feat::FeaturizeKernel(record.kernel.graph)};
}

// Flips one byte of a file in place.
void CorruptByte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

void TruncateFile(const std::string& path, std::uint64_t size) {
  fs::resize_file(path, size);
}

// Overwrites the header's format-version field, bytes [8, 12).
void WriteFormatVersion(const std::string& path, std::uint32_t version) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
  f.seekp(8);
  f.write(bytes, 4);
}

// ---- Round trips ------------------------------------------------------------

TEST_F(StoreTest, EmptyStoreRoundTrips) {
  const std::string path = Path("empty.tpds");
  {
    DatasetWriter writer(path);
    EXPECT_EQ(writer.record_count(), 0u);
    writer.Finish();
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  DatasetReader reader(path);
  EXPECT_EQ(reader.format_version(), kStoreFormatVersion);
  EXPECT_EQ(reader.feature_config_hash(), FeatureConfigHash());
  EXPECT_EQ(reader.record_count(), 0u);
  const StoreContents contents = reader.ReadAll();
  EXPECT_TRUE(contents.programs.empty());
  EXPECT_TRUE(contents.tile.kernels.empty());
  EXPECT_TRUE(contents.fusion.samples.empty());
  EXPECT_TRUE(contents.features->empty());
}

// One record and 32 records; both ends of the batch-size spectrum must be
// byte-faithful.
void RoundTripTileBatch(const TileDataset& dataset, const std::string& path,
                        int count) {
  ASSERT_FALSE(dataset.kernels.empty());
  std::vector<const TileKernelData*> written;
  {
    DatasetWriter writer(path);
    for (int i = 0; i < count; ++i) {
      const TileKernelData& k =
          dataset.kernels[static_cast<std::size_t>(i) %
                          dataset.kernels.size()];
      writer.Add(k);
      written.push_back(&k);
    }
    writer.Finish();
  }
  // Distinct kernel graphs each cost one extra dictionary record (v3
  // dictionary compression); duplicates reuse the earlier entry.
  std::set<std::uint64_t> unique_graphs;
  for (const TileKernelData* k : written) {
    unique_graphs.insert(k->record.fingerprint);
  }
  DatasetReader reader(path);
  ASSERT_EQ(reader.record_count(),
            static_cast<std::uint64_t>(count) + unique_graphs.size());
  const StoreContents contents = reader.ReadAll();
  ASSERT_EQ(contents.tile.kernels.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    ExpectTileKernelsEqual(*written[static_cast<std::size_t>(i)],
                           contents.tile.kernels[static_cast<std::size_t>(i)]);
  }
}

TEST_F(StoreTest, SingleRecordRoundTripsBitExact) {
  RoundTripTileBatch(*tile_, Path("one.tpds"), 1);
}

TEST_F(StoreTest, ThirtyTwoRecordRoundTripsBitExact) {
  RoundTripTileBatch(*tile_, Path("thirtytwo.tpds"), 32);
}

TEST_F(StoreTest, FullDatasetsRoundTripBitExact) {
  const std::string path = Path("full.tpds");
  std::vector<FeaturizedKernel> featurized;
  {
    DatasetWriter writer(path);
    for (std::size_t i = 0; i < corpus_->size(); ++i) {
      writer.Add(ProgramInfo{static_cast<int>(i), (*corpus_)[i].name,
                             (*corpus_)[i].family});
    }
    for (const auto& k : tile_->kernels) writer.Add(k);
    for (const auto& s : fusion_->samples) writer.Add(s);
    for (const auto& s : fusion_->samples) {
      featurized.push_back(Featurize(s.record));
      writer.Add(featurized.back());
    }
    writer.Finish();
  }
  const StoreContents contents = DatasetReader(path).ReadAll();

  ASSERT_EQ(contents.programs.size(), corpus_->size());
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    EXPECT_EQ(contents.programs[i].program_id, static_cast<int>(i));
    EXPECT_EQ(contents.programs[i].name, (*corpus_)[i].name);
    EXPECT_EQ(contents.programs[i].family, (*corpus_)[i].family);
  }
  ASSERT_EQ(contents.tile.kernels.size(), tile_->kernels.size());
  for (std::size_t i = 0; i < tile_->kernels.size(); ++i) {
    ExpectTileKernelsEqual(tile_->kernels[i], contents.tile.kernels[i]);
  }
  ASSERT_EQ(contents.fusion.samples.size(), fusion_->samples.size());
  for (std::size_t i = 0; i < fusion_->samples.size(); ++i) {
    ExpectFusionSamplesEqual(fusion_->samples[i], contents.fusion.samples[i]);
  }
  // Duplicate featurized records collapse; every written one must be
  // retrievable and bit-exact.
  for (const FeaturizedKernel& fk : featurized) {
    std::optional<feat::KernelFeatures> loaded =
        contents.features->Lookup(fk.fingerprint, fk.structural_sig);
    ASSERT_TRUE(loaded.has_value());
    FeaturizedKernel roundtripped{fk.fingerprint, fk.structural_sig,
                                  std::move(*loaded)};
    ExpectFeaturizedEqual(fk, roundtripped);
  }
  // KernelsOfPrograms/SamplesOfPrograms see identical membership: program
  // identity survived serialization.
  const std::vector<int> ids = {0, 2, 5};
  EXPECT_EQ(tile_->KernelsOfPrograms(ids),
            contents.tile.KernelsOfPrograms(ids));
  EXPECT_EQ(fusion_->SamplesOfPrograms(ids),
            contents.fusion.SamplesOfPrograms(ids));
}

// ---- Adversarial corruption -------------------------------------------------

class StoreCorruptionTest : public StoreTest {
 protected:
  // Writes a small valid store and returns its path.
  std::string WriteValid(const std::string& name) {
    const std::string path = Path(name);
    DatasetWriter writer(path);
    writer.Add(tile_->kernels.front());
    writer.Add(Featurize(tile_->kernels.front().record));
    writer.Finish();
    return path;
  }

  static void ExpectRejected(const std::string& path,
                             const std::string& message_fragment) {
    try {
      DatasetReader reader(path);
      (void)reader.ReadAll();
      FAIL() << "expected StoreError mentioning \"" << message_fragment
             << "\"";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find(message_fragment),
                std::string::npos)
          << "actual error: " << e.what();
    }
  }
};

TEST_F(StoreCorruptionTest, TruncatedHeaderFailsLoudly) {
  const std::string path = WriteValid("trunc_header.tpds");
  TruncateFile(path, 11);
  ExpectRejected(path, "truncated header");
}

TEST_F(StoreCorruptionTest, TruncatedPayloadFailsLoudly) {
  const std::string path = WriteValid("trunc_payload.tpds");
  TruncateFile(path, fs::file_size(path) - 7);
  ExpectRejected(path, "truncated store");
}

TEST_F(StoreCorruptionTest, FlippedMagicFailsLoudly) {
  const std::string path = WriteValid("magic.tpds");
  CorruptByte(path, 0);
  ExpectRejected(path, "bad magic");
}

TEST_F(StoreCorruptionTest, FutureFormatVersionIsRejected) {
  const std::string path = WriteValid("future.tpds");
  WriteFormatVersion(path, kStoreFormatVersion + 3);
  ExpectRejected(path, "newer tpuperf");
}

// Version 2 had no graph dictionary and no layout tag; this build reads v3
// only, and says so instead of misparsing the records.
TEST_F(StoreCorruptionTest, OlderFormatVersionIsRejected) {
  const std::string path = WriteValid("v2.tpds");
  WriteFormatVersion(path, 2);
  ExpectRejected(path, "predates");
}

// Layout tag 0 (a kernel stored inline, never written in v3) is rejected as
// an unknown tag. The checksum is recomputed, so only the tag check can
// catch it.
TEST_F(StoreCorruptionTest, InlineKernelLayoutTagIsRejected) {
  const std::string path = WriteValid("tag0.tpds");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  std::uint64_t offset = kStoreHeaderSize;
  for (;;) {
    char header[kStoreRecordHeaderSize];
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(header, sizeof(header));
    ASSERT_TRUE(f) << "no tile-kernel record in the store";
    std::uint32_t type = 0;
    std::uint64_t size = 0;
    std::memcpy(&type, header, 4);  // little-endian, like the format
    std::memcpy(&size, header + 4, 8);
    if (type == kTileKernelRecordType) {
      std::string payload(size, '\0');
      f.read(payload.data(), static_cast<std::streamsize>(size));
      ASSERT_EQ(payload[0], 1) << "expected a dictionary-reference tag";
      payload[0] = 0;
      const std::uint64_t checksum = Fnv1a64(payload.data(), payload.size());
      f.seekp(static_cast<std::streamoff>(offset + 12));
      f.write(reinterpret_cast<const char*>(&checksum), 8);
      f.write(payload.data(), 1);
      break;
    }
    offset += kStoreRecordHeaderSize + size;
  }
  f.close();
  ExpectRejected(path, "unknown kernel-record layout tag 0");
}

TEST_F(StoreCorruptionTest, FeatureConfigHashMismatchIsRejected) {
  const std::string path = WriteValid("feature_hash.tpds");
  CorruptByte(path, 14);  // inside the feature-config hash field [12, 20)
  ExpectRejected(path, "feature-config hash mismatch");
}

TEST_F(StoreCorruptionTest, CorruptedRecordChecksumFailsLoudly) {
  const std::string path = WriteValid("checksum.tpds");
  // First record payload starts after the 28-byte header and the 20-byte
  // record header; flip a byte in the middle of the payload.
  CorruptByte(path, 28 + 20 + 33);
  ExpectRejected(path, "checksum mismatch");
}

TEST_F(StoreCorruptionTest, UnknownRecordTypeFailsLoudly) {
  const std::string path = WriteValid("rectype.tpds");
  // The record type is outside the payload checksum; patch it to garbage.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const char type99[4] = {99, 0, 0, 0};
  f.seekp(28);
  f.write(type99, 4);
  f.close();
  ExpectRejected(path, "unknown record type");
}

// Scaler records belong to model snapshots (serve/snapshot.h); a dataset
// read points at the snapshot loader, as it does for the other snapshot
// record types.
TEST_F(StoreCorruptionTest, SnapshotScalerRecordIsRejected) {
  const std::string path = Path("scaler_record.tpds");
  {
    DatasetWriter writer(path);
    writer.AddRaw(kScalerRecordType, "scaler");
    writer.Finish();
  }
  ExpectRejected(path, "LoadModelSnapshot");
}

TEST_F(StoreCorruptionTest, TrailingGarbageFailsLoudly) {
  const std::string path = WriteValid("trailing.tpds");
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write("junk", 4);
  f.close();
  ExpectRejected(path, "trailing bytes");
}

// The reader sizes the file when it opens it; a file that then shrinks
// (another process truncating or rewriting it) must make the read throw at
// end of file, never fault on the missing pages.
TEST_F(StoreCorruptionTest, FileShrunkAfterOpenThrows) {
  const std::string path = Path("shrunk.tpds");
  {
    DatasetWriter writer(path);
    for (const TileKernelData& k : tile_->kernels) {
      writer.Add(k);
      writer.Add(Featurize(k.record));
    }
    writer.Finish();
  }
  // Large enough that the lost half spans whole pages at any page size.
  ASSERT_GT(fs::file_size(path), 256u * 1024u);
  DatasetReader reader(path);
  TruncateFile(path, fs::file_size(path) / 2);
  try {
    (void)reader.ReadAll();
    FAIL() << "expected StoreError for a file that shrank after open";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST_F(StoreCorruptionTest, MissingFileFailsLoudly) {
  try {
    DatasetReader reader(Path("does_not_exist.tpds"));
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot"), std::string::npos);
  }
}

// ---- Injected short reads ---------------------------------------------------

// The store.short_read fault point models mid-stream truncation. Wherever
// the schedule lands it, the reader's corruption contract must hold: a
// diagnostic StoreError naming the file and record, and never a partial
// StoreContents handed back.
TEST_F(StoreTest, InjectedShortReadFailsLoudlyNeverPartially) {
  const std::string path = Path("short_read.tpds");
  constexpr int kRecords = 8;
  {
    DatasetWriter writer(path);
    for (int i = 0; i < kRecords; ++i) {
      writer.Add(tile_->kernels[static_cast<std::size_t>(i) %
                                tile_->kernels.size()]);
    }
    writer.Finish();
  }
  // First record, mid-stream, and a sparse schedule: every placement aborts
  // the whole read the same way.
  for (const char* spec :
       {"store.short_read:every=1", "store.short_read:every=1,after=3",
        "store.short_read:every=5,after=1"}) {
    core::FaultRegistry::Instance().ArmSpec(spec);
    DatasetReader reader(path);
    try {
      (void)reader.ReadAll();
      FAIL() << "short read injected by \"" << spec << "\" was swallowed";
    } catch (const StoreError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("store.short_read"), std::string::npos) << what;
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("record"), std::string::npos) << what;
    }
  }
  core::FaultRegistry::Instance().ArmFromEnv();

  // Disarmed, the very same file loads whole — the faults never touched it.
  DatasetReader reader(path);
  EXPECT_EQ(reader.ReadAll().tile.kernels.size(),
            static_cast<std::size_t>(kRecords));
}

// ---- LoadOrBuild + warm-training parity -------------------------------------

TEST_F(StoreTest, LoadOrBuildRoundTripsDatasetsAndPrograms) {
  StoreLoadStats cold_stats;
  std::shared_ptr<StoredFeatures> cold_features;
  const TileDataset cold = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, *options_, &cold_features,
      &cold_stats);
  EXPECT_FALSE(cold_stats.cache_hit);
  ASSERT_NE(cold_features, nullptr);
  EXPECT_GT(cold_features->size(), 0u);

  StoreLoadStats warm_stats;
  std::shared_ptr<StoredFeatures> warm_features;
  const TileDataset warm = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, *options_, &warm_features,
      &warm_stats);
  EXPECT_TRUE(warm_stats.cache_hit);
  EXPECT_EQ(warm_stats.path, cold_stats.path);
  ASSERT_NE(warm_features, nullptr);
  EXPECT_EQ(warm_features->size(), cold_features->size());
  ASSERT_EQ(warm.kernels.size(), cold.kernels.size());
  for (std::size_t i = 0; i < cold.kernels.size(); ++i) {
    ExpectTileKernelsEqual(cold.kernels[i], warm.kernels[i]);
  }

  // Changing the generation budget changes the key: no false sharing.
  DatasetOptions other = *options_;
  other.max_tile_configs_per_kernel += 1;
  EXPECT_NE(DatasetCacheKey("tile", simulator_->target().name, *corpus_,
                            *options_),
            DatasetCacheKey("tile", simulator_->target().name, *corpus_,
                            other));
}

// Trains both tasks for 50 steps from (a) in-process featurization and (b)
// the warm store, at pool widths 1 and 4: identical seeds must give
// identical splits of work and losses within 1e-6 relative.
TEST_F(StoreTest, WarmStoreTrainingMatchesInProcess) {
  // Populate the store once (cold), then reload both datasets and their
  // featurized records from disk (warm) — training below runs off the
  // actually-deserialized features.
  const TileDataset tile_cold = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, *options_);
  (void)LoadOrBuildFusionDataset(dir_.string(), *corpus_, *simulator_,
                                 *analytical_, *options_);
  StoreLoadStats tile_stats;
  std::shared_ptr<StoredFeatures> features;
  const TileDataset tile_warm = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, *options_, &features,
      &tile_stats);
  ASSERT_TRUE(tile_stats.cache_hit);
  StoreLoadStats fusion_stats;
  std::shared_ptr<StoredFeatures> fusion_features;
  const FusionDataset fusion_warm = LoadOrBuildFusionDataset(
      dir_.string(), *corpus_, *simulator_, *analytical_, *options_,
      &fusion_features, &fusion_stats);
  ASSERT_TRUE(fusion_stats.cache_hit);
  const FusionDataset fusion_in_process =
      BuildFusionDataset(*corpus_, *simulator_, *analytical_, *options_);

  std::vector<int> all_ids;
  for (std::size_t i = 0; i < corpus_->size(); ++i) {
    all_ids.push_back(static_cast<int>(i));
  }

  const auto tile_config = [] {
    core::ModelConfig c = core::ModelConfig::TileTaskDefault();
    c.hidden_dim = 16;
    c.opcode_embedding_dim = 8;
    c.train_steps = 50;
    return c;
  }();
  const auto fusion_config = [] {
    core::ModelConfig c = core::ModelConfig::FusionTaskDefault();
    c.hidden_dim = 16;
    c.opcode_embedding_dim = 8;
    c.train_steps = 50;
    return c;
  }();

  for (const int width : {1, 4}) {
    core::ThreadPool::SetNumThreads(width);

    // ---- rank loss (tile task) ---------------------------------------------
    core::LearnedCostModel in_process(tile_config);
    core::PreparedCache in_process_cache(in_process, /*features=*/nullptr);
    const core::TrainStats a =
        core::TrainTileTask(in_process, tile_cold, all_ids, in_process_cache);

    feat::ResetFeaturizeKernelInvocations();
    core::LearnedCostModel warm(tile_config);
    core::PreparedCache warm_cache(warm, features.get());
    const core::TrainStats b =
        core::TrainTileTask(warm, tile_warm, all_ids, warm_cache);
    EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0)
        << "warm tile training touched the featurizer (width " << width << ")";

    EXPECT_NEAR(a.first_loss, b.first_loss,
                1e-6 * std::max(1.0, std::abs(a.first_loss)))
        << "width " << width;
    EXPECT_NEAR(a.final_loss, b.final_loss,
                1e-6 * std::max(1.0, std::abs(a.final_loss)))
        << "width " << width;

    // ---- log-MSE loss (fusion task) ----------------------------------------
    core::LearnedCostModel in_process_f(fusion_config);
    core::PreparedCache in_process_f_cache(in_process_f, nullptr);
    const core::TrainStats c = core::TrainFusionTask(
        in_process_f, fusion_in_process, all_ids, in_process_f_cache);

    feat::ResetFeaturizeKernelInvocations();
    core::LearnedCostModel warm_f(fusion_config);
    core::PreparedCache warm_f_cache(warm_f, fusion_features.get());
    const core::TrainStats d =
        core::TrainFusionTask(warm_f, fusion_warm, all_ids, warm_f_cache);
    EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0)
        << "warm fusion training touched the featurizer (width " << width
        << ")";

    EXPECT_NEAR(c.first_loss, d.first_loss,
                1e-6 * std::max(1.0, std::abs(c.first_loss)))
        << "width " << width;
    EXPECT_NEAR(c.final_loss, d.final_loss,
                1e-6 * std::max(1.0, std::abs(c.final_loss)))
        << "width " << width;
  }
  core::ThreadPool::SetNumThreads(1);
}

// Split identity across the store round trip: the same seed selects the
// same program ids, and those ids index the same kernels in the loaded
// dataset as in the generating one.
TEST_F(StoreTest, SplitsSurviveStoreRoundTrip) {
  const std::string path = Path("splits.tpds");
  {
    DatasetWriter writer(path);
    for (std::size_t i = 0; i < corpus_->size(); ++i) {
      writer.Add(ProgramInfo{static_cast<int>(i), (*corpus_)[i].name,
                             (*corpus_)[i].family});
    }
    for (const auto& k : tile_->kernels) writer.Add(k);
    writer.Finish();
  }
  const StoreContents contents = DatasetReader(path).ReadAll();

  const SplitSpec before = RandomSplit(*corpus_, 99);
  const SplitSpec after = RandomSplit(*corpus_, 99);
  EXPECT_EQ(before.train, after.train);
  EXPECT_EQ(before.validation, after.validation);
  EXPECT_EQ(before.test, after.test);

  EXPECT_EQ(tile_->KernelsOfPrograms(before.train),
            contents.tile.KernelsOfPrograms(before.train));
  EXPECT_EQ(tile_->KernelsOfPrograms(before.test),
            contents.tile.KernelsOfPrograms(before.test));
  for (const int id : before.train) {
    const auto& p = contents.programs[static_cast<std::size_t>(id)];
    EXPECT_EQ(p.name, (*corpus_)[static_cast<std::size_t>(id)].name);
    EXPECT_EQ(p.family, (*corpus_)[static_cast<std::size_t>(id)].family);
  }
}

// ---- Sharded stores ---------------------------------------------------------

class ShardedStoreTest : public StoreTest {
 protected:
  // Writes the full tile dataset sharded into small parts; returns the
  // manifest path.
  std::string WriteSharded(const std::string& name,
                           std::uint64_t part_bytes = 2048) {
    const std::string path = Path(name);
    DatasetWriter writer(path, part_bytes);
    for (const auto& k : tile_->kernels) writer.Add(k);
    parts_written_ = writer.part_count();
    writer.Finish();
    return path;
  }

  static std::string PartPath(const std::string& manifest, std::size_t p) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".p%03zu", p);
    return manifest + suffix;
  }

  // Both readers of a sharded store — the whole-store read and the
  // streaming sampler's scan — reject it with `message_fragment`.
  static void ExpectShardedRejected(const std::string& path,
                                    const std::string& message_fragment) {
    const auto expect = [&](const char* reader, const auto& read) {
      try {
        read();
        ADD_FAILURE() << reader << ": expected StoreError mentioning \""
                      << message_fragment << "\"";
      } catch (const StoreError& e) {
        EXPECT_NE(std::string(e.what()).find(message_fragment),
                  std::string::npos)
            << reader << ": actual error: " << e.what();
      }
    };
    expect("ReadStoreContents", [&] { (void)ReadStoreContents(path); });
    expect("StreamingSampler",
           [&] { StreamingSampler sampler(path, StreamTask::kTile); });
  }

  std::size_t parts_written_ = 0;
};

TEST_F(ShardedStoreTest, ShardedRoundTripBitExact) {
  const std::string path = WriteSharded("sharded.tpds");
  ASSERT_GT(parts_written_, 1u) << "2 KiB parts must shard this corpus";
  for (std::size_t p = 0; p < parts_written_; ++p) {
    EXPECT_TRUE(fs::exists(PartPath(path, p))) << "part " << p;
  }
  DatasetReader manifest(path);
  EXPECT_TRUE(manifest.sharded_manifest());
  EXPECT_EQ(manifest.record_count(), 1u);

  const StoreContents contents = ReadStoreContents(path);
  ASSERT_EQ(contents.tile.kernels.size(), tile_->kernels.size());
  for (std::size_t i = 0; i < tile_->kernels.size(); ++i) {
    ExpectTileKernelsEqual(tile_->kernels[i], contents.tile.kernels[i]);
  }
}

TEST_F(ShardedStoreTest, DictionaryCompressionCollapsesDuplicateGraphs) {
  // 16 copies of one kernel: the graph is written once (dictionary record)
  // and referenced 16 times, so the file stays far smaller than 16 full
  // graph encodings.
  const std::string once = Path("once.tpds");
  {
    DatasetWriter writer(once);
    writer.Add(tile_->kernels.front());
    writer.Finish();
  }
  const std::string dups = Path("dups.tpds");
  {
    DatasetWriter writer(dups);
    for (int i = 0; i < 16; ++i) writer.Add(tile_->kernels.front());
    writer.Finish();
  }
  EXPECT_LT(fs::file_size(dups), 3 * fs::file_size(once));
}

TEST_F(ShardedStoreTest, TruncatedManifestFailsLoudly) {
  const std::string path = WriteSharded("trunc_manifest.tpds");
  TruncateFile(path, fs::file_size(path) - 9);
  ExpectShardedRejected(path, "truncated");
}

TEST_F(ShardedStoreTest, MissingPartFileFailsLoudly) {
  const std::string path = WriteSharded("missing_part.tpds");
  ASSERT_GT(parts_written_, 1u);
  fs::remove(PartPath(path, 1));
  ExpectShardedRejected(path, "missing");
}

TEST_F(ShardedStoreTest, ChecksumCorruptionInLaterPartFailsLoudly) {
  const std::string path = WriteSharded("corrupt_part.tpds");
  ASSERT_GT(parts_written_, 1u);
  // Flip a payload byte of the SECOND part: corruption past the first
  // shard boundary must still be caught.
  CorruptByte(PartPath(path, 1),
              kStoreHeaderSize + kStoreRecordHeaderSize + 10);
  ExpectShardedRejected(path, "checksum");
}

TEST_F(ShardedStoreTest, TruncatedPartFileFailsLoudly) {
  const std::string path = WriteSharded("trunc_part.tpds");
  ASSERT_GT(parts_written_, 1u);
  const std::string part = PartPath(path, 1);
  TruncateFile(part, fs::file_size(part) - 5);
  ExpectShardedRejected(path, "truncated or swapped part file");
}

// Regression: the cache key must cover the corpus parameters (scale and
// tier-extension seed). Before the fix, two runs at different REPRO_SCALE
// hashed to the same key and silently shared one store.
TEST_F(ShardedStoreTest, CacheKeyCoversCorpusScaleAndSeed) {
  DatasetOptions base = *options_;
  const std::uint64_t key =
      DatasetCacheKey("tile", "TPUv2", *corpus_, base);

  DatasetOptions scaled = base;
  scaled.corpus_scale = 4.0;
  EXPECT_NE(DatasetCacheKey("tile", "TPUv2", *corpus_, scaled), key)
      << "corpus_scale must enter the cache key";

  DatasetOptions reseeded = base;
  reseeded.corpus_seed = base.corpus_seed + 1;
  EXPECT_NE(DatasetCacheKey("tile", "TPUv2", *corpus_, reseeded), key)
      << "corpus_seed must enter the cache key";

  DatasetOptions resharded = base;
  resharded.store_part_bytes = 1 << 20;
  EXPECT_EQ(DatasetCacheKey("tile", "TPUv2", *corpus_, resharded), key)
      << "the shard size is a layout choice, not dataset identity";
}

TEST_F(ShardedStoreTest, LoadOrBuildRoundTripsShardedStores) {
  DatasetOptions sharded = *options_;
  sharded.store_part_bytes = 2048;
  StoreLoadStats cold_stats;
  const TileDataset cold = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, sharded, nullptr, &cold_stats);
  ASSERT_FALSE(cold_stats.cache_hit);
  ASSERT_TRUE(fs::exists(cold_stats.path));
  EXPECT_TRUE(fs::exists(PartPath(cold_stats.path, 1)))
      << "cold populate must have sharded the store";

  StoreLoadStats warm_stats;
  std::shared_ptr<StoredFeatures> features;
  const TileDataset warm = LoadOrBuildTileDataset(
      dir_.string(), *corpus_, *simulator_, sharded, &features, &warm_stats);
  ASSERT_TRUE(warm_stats.cache_hit);
  EXPECT_EQ(warm_stats.path, cold_stats.path)
      << "store_part_bytes must not change the cache key";
  ASSERT_EQ(warm.kernels.size(), cold.kernels.size());
  for (std::size_t i = 0; i < cold.kernels.size(); ++i) {
    ExpectTileKernelsEqual(cold.kernels[i], warm.kernels[i]);
  }
  ASSERT_NE(features, nullptr);
  EXPECT_FALSE(features->empty());
}

}  // namespace
}  // namespace tpuperf::data
