// Tests for out-of-core dataset streaming (src/dataset/streaming.h):
// deterministic shuffle-window sequences,
// canonical single-window order, windows equal to the whole-store read
// field for field, the store's corruption checks on per-window dictionary
// decode, bit-identical streaming-vs-in-memory training (losses and every
// parameter) for both tasks, windowed training of both tasks (windows the
// split leaves empty are skipped; an epoch of them throws), and the
// retain-nothing StreamedFeatures source.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "dataset/families.h"
#include "dataset/store.h"
#include "dataset/streaming.h"
#include "features/featurizer.h"

namespace tpuperf::data {
namespace {

namespace fs = std::filesystem;

class StreamingTest : public ::testing::Test {
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
           ("tpuperf_streaming_test_" +
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

  // Writes the tile dataset (kernels + deduped featurized records) as a
  // store, sharded when part_bytes > 0.
  std::string WriteTileStore(const std::string& name,
                             std::uint64_t part_bytes) {
    const std::string path = Path(name);
    DatasetWriter writer(path, part_bytes);
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const auto& k : tile_->kernels) {
      writer.Add(k);
      const std::uint64_t sig = k.record.kernel.graph.StructuralSignature();
      if (seen.insert({k.record.fingerprint, sig}).second) {
        writer.Add(FeaturizedKernel{
            k.record.fingerprint, sig,
            feat::FeaturizeKernel(k.record.kernel.graph)});
      }
    }
    writer.Finish();
    return path;
  }

  std::string WriteFusionStore(const std::string& name,
                               std::uint64_t part_bytes) {
    const std::string path = Path(name);
    DatasetWriter writer(path, part_bytes);
    std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const auto& s : fusion_->samples) {
      writer.Add(s);
      const std::uint64_t sig = s.record.kernel.graph.StructuralSignature();
      if (seen.insert({s.record.fingerprint, sig}).second) {
        writer.Add(FeaturizedKernel{
            s.record.fingerprint, sig,
            feat::FeaturizeKernel(s.record.kernel.graph)});
      }
    }
    writer.Finish();
    return path;
  }

  static std::vector<int> AllProgramIds() {
    std::vector<int> ids;
    for (std::size_t i = 0; i < corpus_->size(); ++i) {
      ids.push_back(static_cast<int>(i));
    }
    return ids;
  }

  static std::vector<ir::Program>* corpus_;
  static sim::TpuSimulator* simulator_;
  static analytical::AnalyticalModel* analytical_;
  static DatasetOptions* options_;
  static TileDataset* tile_;
  static FusionDataset* fusion_;
  fs::path dir_;
};

std::vector<ir::Program>* StreamingTest::corpus_ = nullptr;
sim::TpuSimulator* StreamingTest::simulator_ = nullptr;
analytical::AnalyticalModel* StreamingTest::analytical_ = nullptr;
DatasetOptions* StreamingTest::options_ = nullptr;
TileDataset* StreamingTest::tile_ = nullptr;
FusionDataset* StreamingTest::fusion_ = nullptr;

// Fingerprint trace of `count` consecutive Next() windows — the identity of
// every record served, in order.
std::vector<std::uint64_t> DrainFingerprints(StreamingSampler& sampler,
                                             std::size_t count) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < count; ++i) {
    StreamWindow w = sampler.Next();
    for (std::size_t r = 0; r < w.size(); ++r) {
      out.push_back(sampler.task() == StreamTask::kTile
                        ? w.tile(r).record.fingerprint
                        : w.fusion(r).record.fingerprint);
    }
  }
  return out;
}

// ---- Window sequencing ------------------------------------------------------

TEST_F(StreamingTest, SingleWindowIsCanonicalOrder) {
  const std::string path = WriteTileStore("tile.tpds", /*part_bytes=*/0);
  StreamingSampler sampler(path, StreamTask::kTile, {});
  EXPECT_EQ(sampler.total_records(), tile_->kernels.size());
  EXPECT_EQ(sampler.windows_per_epoch(), 1u);
  EXPECT_EQ(sampler.part_count(), 1u);

  StreamWindow window = sampler.Next();
  ASSERT_EQ(window.size(), tile_->kernels.size());
  for (std::size_t i = 0; i < tile_->kernels.size(); ++i) {
    const TileKernelData& a = tile_->kernels[i];
    const TileKernelData& b = window.tile(i);
    EXPECT_EQ(a.record.fingerprint, b.record.fingerprint) << "record " << i;
    EXPECT_EQ(a.record.program_id, b.record.program_id);
    EXPECT_EQ(a.record.family, b.record.family);
    ASSERT_EQ(a.runtimes.size(), b.runtimes.size());
    for (std::size_t j = 0; j < a.runtimes.size(); ++j) {
      // EXPECT_EQ on doubles: decode must be bit-exact.
      EXPECT_EQ(a.runtimes[j], b.runtimes[j]);
    }
  }
}

TEST_F(StreamingTest, ShardedStoreServesSameRecordStream) {
  const std::string single = WriteTileStore("single.tpds", 0);
  const std::string sharded = WriteTileStore("sharded.tpds", 2048);
  StreamingSampler a(single, StreamTask::kTile, {.seed = 11});
  StreamingSampler b(sharded, StreamTask::kTile, {.seed = 11});
  ASSERT_GT(b.part_count(), 1u) << "2 KiB parts must shard this corpus";
  EXPECT_EQ(a.total_records(), b.total_records());
  EXPECT_EQ(DrainFingerprints(a, 1), DrainFingerprints(b, 1));
}

// Two samplers over one sharded store draw the same window sequence.
TEST_F(StreamingTest, WindowSequenceRepeatsOnAShardedStore) {
  const std::string path = WriteTileStore("tile.tpds", 2048);
  const StreamingOptions options{.window_records = 2, .seed = 7};
  std::vector<std::vector<std::uint64_t>> traces;
  for (int run = 0; run < 2; ++run) {
    StreamingSampler sampler(path, StreamTask::kTile, options);
    ASSERT_GT(sampler.windows_per_epoch(), 1u);
    // Two full epochs: covers the epoch-boundary reshuffle too.
    traces.push_back(
        DrainFingerprints(sampler, 2 * sampler.windows_per_epoch()));
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST_F(StreamingTest, WindowOrderDependsOnSeedAndEpoch) {
  const std::string path = WriteTileStore("tile.tpds", 0);
  const std::size_t n = tile_->kernels.size();
  ASSERT_GE(n, 8u);
  StreamingSampler seed1(path, StreamTask::kTile,
                         {.window_records = 1, .seed = 1});
  StreamingSampler seed2(path, StreamTask::kTile,
                         {.window_records = 1, .seed = 2});
  const auto epoch0_seed1 = DrainFingerprints(seed1, n);
  const auto epoch1_seed1 = DrainFingerprints(seed1, n);
  const auto epoch0_seed2 = DrainFingerprints(seed2, n);
  EXPECT_NE(epoch0_seed1, epoch0_seed2) << "seed must key the shuffle";
  EXPECT_NE(epoch0_seed1, epoch1_seed1) << "epoch must reshuffle";
  // Same multiset every time: a shuffle, not a resample.
  auto sorted = [](std::vector<std::uint64_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(epoch0_seed1), sorted(epoch0_seed2));
  EXPECT_EQ(sorted(epoch0_seed1), sorted(epoch1_seed1));

  // And a fresh sampler reproduces the exact two-epoch sequence.
  StreamingSampler replay(path, StreamTask::kTile,
                          {.window_records = 1, .seed = 1});
  EXPECT_EQ(DrainFingerprints(replay, n), epoch0_seed1);
  EXPECT_EQ(DrainFingerprints(replay, n), epoch1_seed1);
}

// ---- Windows against the whole-store read -----------------------------------

void ExpectRecordsEqual(const KernelRecord& a, const KernelRecord& b) {
  const ir::Graph& ga = a.kernel.graph;
  const ir::Graph& gb = b.kernel.graph;
  ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
  for (int i = 0; i < ga.num_nodes(); ++i) {
    const ir::Node& na = ga.node(i);
    const ir::Node& nb = gb.node(i);
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
  EXPECT_EQ(ga.StructuralSignature(), gb.StructuralSignature());
  // Each record carries its graph's signature, decoded or drawn.
  EXPECT_EQ(a.signature, ga.StructuralSignature());
  EXPECT_EQ(b.signature, gb.StructuralSignature());
  EXPECT_EQ(a.kernel.kind, b.kernel.kind);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.program_id, b.program_id);
  EXPECT_EQ(a.family, b.family);
}

// Every window of a sharded store, decoded through its window-local
// dictionary, equals the matching slice of ReadStoreContents (which
// decodes each part's whole dictionary in file order), field for field.
TEST_F(StreamingTest, WindowsEqualWholeStoreRecords) {
  const std::string tile_path = WriteTileStore("tile.tpds", 2048);
  const StoreContents tile = ReadStoreContents(tile_path);
  StreamingSampler tiles(tile_path, StreamTask::kTile, {.window_records = 3});
  ASSERT_GT(tiles.part_count(), 1u);
  ASSERT_EQ(tiles.total_records(), tile.tile.kernels.size());
  for (std::size_t w = 0; w < tiles.windows_per_epoch(); ++w) {
    StreamWindow window = tiles.Window(w);
    for (std::size_t i = 0; i < window.size(); ++i) {
      SCOPED_TRACE("tile record " + std::to_string(window.first_record() + i));
      const TileKernelData& a = tile.tile.kernels[window.first_record() + i];
      const TileKernelData& b = window.tile(i);
      EXPECT_EQ(window.program_id(i), a.record.program_id);
      EXPECT_EQ(window.family(i), a.record.family);
      ExpectRecordsEqual(a.record, b.record);
      EXPECT_EQ(a.configs, b.configs);
      EXPECT_EQ(a.runtimes, b.runtimes);  // doubles: bit-exact decode
    }
  }

  const std::string fusion_path = WriteFusionStore("fusion.tpds", 2048);
  const StoreContents fusion = ReadStoreContents(fusion_path);
  StreamingSampler samples(fusion_path, StreamTask::kFusion,
                           {.window_records = 5});
  ASSERT_GT(samples.part_count(), 1u);
  ASSERT_EQ(samples.total_records(), fusion.fusion.samples.size());
  for (std::size_t w = 0; w < samples.windows_per_epoch(); ++w) {
    StreamWindow window = samples.Window(w);
    for (std::size_t i = 0; i < window.size(); ++i) {
      SCOPED_TRACE("fusion record " +
                   std::to_string(window.first_record() + i));
      const FusionSample& a =
          fusion.fusion.samples[window.first_record() + i];
      const FusionSample& b = window.fusion(i);
      EXPECT_EQ(window.program_id(i), a.record.program_id);
      EXPECT_EQ(window.family(i), a.record.family);
      ExpectRecordsEqual(a.record, b.record);
      EXPECT_EQ(a.tile, b.tile);
      EXPECT_EQ(a.runtime, b.runtime);
      EXPECT_EQ(a.from_default_config, b.from_default_config);
    }
  }
}

// 0, size-1, 1, size-2, ...: the n-th index of a walk from both ends.
std::size_t AlternateEnds(std::size_t n, std::size_t size) {
  return n % 2 == 0 ? n / 2 : size - 1 - n / 2;
}

// A single window over a sharded store spans every part boundary. Its
// records, drawn alternately from both ends so that consecutive reads
// change parts, decode bit-equal to ReadStoreContents: each record is read
// from its own part and resolves its dictionary index in that part's
// dictionary.
TEST_F(StreamingTest, WindowAcrossPartBoundariesMatchesWholeStore) {
  const std::string tile_path = WriteTileStore("tile.tpds", 2048);
  const StoreContents tile = ReadStoreContents(tile_path);
  StreamingSampler tiles(tile_path, StreamTask::kTile, {});
  ASSERT_GT(tiles.part_count(), 1u);
  StreamWindow window = tiles.Window(0);
  ASSERT_EQ(window.size(), tile.tile.kernels.size());
  for (std::size_t n = 0; n < window.size(); ++n) {
    const std::size_t i = AlternateEnds(n, window.size());
    SCOPED_TRACE("tile record " + std::to_string(i));
    const TileKernelData& a = tile.tile.kernels[i];
    const TileKernelData& b = window.tile(i);
    ExpectRecordsEqual(a.record, b.record);
    EXPECT_EQ(a.configs, b.configs);
    EXPECT_EQ(a.runtimes, b.runtimes);
  }
  EXPECT_EQ(tiles.decoded(), window.size());

  const std::string fusion_path = WriteFusionStore("fusion.tpds", 2048);
  const StoreContents fusion = ReadStoreContents(fusion_path);
  StreamingSampler samples(fusion_path, StreamTask::kFusion, {});
  ASSERT_GT(samples.part_count(), 1u);
  StreamWindow fusion_window = samples.Window(0);
  ASSERT_EQ(fusion_window.size(), fusion.fusion.samples.size());
  for (std::size_t n = 0; n < fusion_window.size(); ++n) {
    const std::size_t i = AlternateEnds(n, fusion_window.size());
    SCOPED_TRACE("fusion record " + std::to_string(i));
    const FusionSample& a = fusion.fusion.samples[i];
    const FusionSample& b = fusion_window.fusion(i);
    ExpectRecordsEqual(a.record, b.record);
    EXPECT_EQ(a.tile, b.tile);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.from_default_config, b.from_default_config);
  }
  EXPECT_EQ(samples.decoded(), fusion_window.size());
}

// ---- Lazy decode ------------------------------------------------------------

// Building a window decodes nothing; touching every record of a window
// decodes each exactly once, however often it is touched; a training run
// of S steps over one window decodes at most S records.
TEST_F(StreamingTest, WindowsDecodeOnlyTheRecordsTheyServe) {
  const std::string path = WriteTileStore("tile.tpds", 2048);
  StreamingSampler sampler(path, StreamTask::kTile,
                           {.window_records = 8, .seed = 5});
  ASSERT_GT(sampler.windows_per_epoch(), 2u);
  (void)sampler.Next();
  StreamWindow window = sampler.Window(1);
  EXPECT_EQ(sampler.decoded(), 0u) << "Next() and Window() decode nothing";

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      const TileKernelData& first = window.tile(i);
      EXPECT_EQ(&first, &window.tile(i)) << "a record decodes once";
    }
  }
  EXPECT_EQ(sampler.decoded(), window.size());

  // A fitted model skips the scaler pre-pass, so the second run's records
  // are only the ones its steps draw, all from one window.
  const std::vector<int> ids = AllProgramIds();
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 5;
  core::LearnedCostModel model(config);
  core::PreparedCache cache(model, sampler.features().get());
  core::TrainTileTaskStreaming(model, sampler, ids, cache,
                               /*steps_per_window=*/5);
  ASSERT_TRUE(model.fitted());
  const std::size_t before = sampler.decoded();
  const core::TrainStats stats = core::TrainTileTaskStreaming(
      model, sampler, ids, cache, /*steps_per_window=*/config.train_steps);
  EXPECT_EQ(stats.steps, config.train_steps);
  EXPECT_GT(sampler.decoded(), before);
  EXPECT_LE(sampler.decoded() - before,
            static_cast<std::size_t>(config.train_steps))
      << "one decode per step at most";
}

// ---- Corruption checks on the per-window dictionary -------------------------

void ExpectStoreError(const std::function<void()>& read,
                      const std::string& fragment) {
  try {
    read();
    ADD_FAILURE() << "expected StoreError mentioning \"" << fragment << "\"";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual error: " << e.what();
  }
}

class StreamingCorruptionTest : public StreamingTest {
 protected:
  // A single-file tile store of two kernels with distinct graphs, copied
  // record for record (dictionary 0, tile 0, dictionary 1, tile 1) with
  // `patch` applied to each payload, given its type and its ordinal among
  // the records of that type.
  std::string WriteForged(
      const std::string& name,
      const std::function<void(std::uint32_t type, int ordinal,
                               std::string& payload)>& patch) {
    const TileKernelData& first = tile_->kernels.front();
    const auto second = std::find_if(
        tile_->kernels.begin(), tile_->kernels.end(),
        [&](const TileKernelData& k) {
          return k.record.fingerprint != first.record.fingerprint;
        });
    if (second == tile_->kernels.end()) {
      ADD_FAILURE() << "the corpus needs two distinct kernel graphs";
      return {};
    }
    const std::string valid = Path("valid_" + name);
    {
      DatasetWriter writer(valid);
      writer.Add(first);
      writer.Add(*second);
      writer.Finish();
    }
    const std::string path = Path(name);
    DatasetWriter writer(path);
    int ordinal[2] = {0, 0};
    DatasetReader(valid).ForEachRecord([&](const RecordView& view) {
      std::string payload(view.payload.begin(), view.payload.end());
      patch(view.type, ordinal[view.type == kGraphDictRecordType]++, payload);
      writer.AddRaw(view.type, payload);
    });
    writer.Finish();
    return path;
  }

  // Decodes every record of `window`, in store order.
  static void TouchAll(StreamWindow window) {
    for (std::size_t i = 0; i < window.size(); ++i) (void)window.tile(i);
  }

  // Decodes every record of `window`, last first: a later record's
  // dictionary entry is then decoded before an earlier record that
  // references it.
  static void TouchAllReversed(StreamWindow window) {
    for (std::size_t i = window.size(); i-- > 0;) (void)window.tile(i);
  }

  // The whole-store read, the records of Window(0) of a
  // one-record-per-window sampler and the records of Next() of a
  // single-window sampler, touched in store order and in reverse, all fail
  // with `fragment`.
  static void ExpectRejectedEverywhere(const std::string& path,
                                       const std::string& fragment) {
    SCOPED_TRACE(fragment);
    ExpectStoreError([&] { (void)ReadStoreContents(path); }, fragment);
    StreamingSampler per_record(path, StreamTask::kTile,
                                {.window_records = 1});
    ASSERT_EQ(per_record.windows_per_epoch(), 2u);
    ExpectStoreError([&] { TouchAll(per_record.Window(0)); }, fragment);
    StreamingSampler single(path, StreamTask::kTile, {});
    ExpectStoreError([&] { TouchAll(single.Next()); }, fragment);
    ExpectStoreError([&] { TouchAllReversed(single.Window(0)); }, fragment);
  }
};

// Tile record 0 references dictionary index 1, which exists in the file
// but only after it: the window must not resolve it.
TEST_F(StreamingCorruptionTest, ForwardDictionaryReferenceFailsLoudly) {
  const std::string path = WriteForged(
      "forward_ref.tpds",
      [](std::uint32_t type, int ordinal, std::string& payload) {
        if (type != kTileKernelRecordType || ordinal != 0) return;
        ASSERT_EQ(payload[0], 1) << "v3 dictionary-reference tag";
        payload[1] = 1;  // u32 dictionary index, little-endian
      });
  ExpectRejectedEverywhere(
      path, "references graph-dictionary index 1 but only 1 dictionary "
            "records precede it (corrupt store)");
}

// Dictionary record 0 (referenced by tile record 0) stores a fingerprint
// that does not match its graph.
TEST_F(StreamingCorruptionTest, TamperedDictionaryFingerprintFailsLoudly) {
  const std::string path = WriteForged(
      "tampered_dict.tpds",
      [](std::uint32_t type, int ordinal, std::string& payload) {
        if (type != kGraphDictRecordType || ordinal != 0) return;
        payload.back() = static_cast<char>(payload.back() ^ 0x01);
      });
  ExpectRejectedEverywhere(
      path, "stored dictionary fingerprint does not match the decoded graph");
}

// ---- StreamedFeatures -------------------------------------------------------

TEST_F(StreamingTest, StreamedFeaturesMatchInProcessFeaturization) {
  const std::string path = WriteTileStore("tile.tpds", 2048);
  StreamingSampler sampler(path, StreamTask::kTile, {});
  const std::shared_ptr<StreamedFeatures> features = sampler.features();
  ASSERT_GT(features->indexed(), 0u);
  EXPECT_EQ(features->decoded(), 0u) << "nothing decoded before first Lookup";

  std::size_t lookups = 0;
  for (const auto& k : tile_->kernels) {
    const std::uint64_t sig = k.record.kernel.graph.StructuralSignature();
    // Value semantics: each Lookup decodes afresh and hands over its own
    // copy, so a second lookup of the same kernel gives equal features.
    const std::optional<feat::KernelFeatures> first =
        features->Lookup(k.record.fingerprint, sig);
    const std::optional<feat::KernelFeatures> second =
        features->Lookup(k.record.fingerprint, sig);
    lookups += 2;
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    const feat::KernelFeatures direct =
        feat::FeaturizeKernel(k.record.kernel.graph);
    for (const feat::KernelFeatures* streamed : {&*first, &*second}) {
      EXPECT_EQ(streamed->opcode_ids, direct.opcode_ids);
      EXPECT_EQ(streamed->operand_lists, direct.operand_lists);
      ASSERT_EQ(streamed->node_scalars.size(), direct.node_scalars.size());
      for (std::size_t i = 0; i < direct.node_scalars.size(); ++i) {
        EXPECT_EQ(streamed->node_scalars[i], direct.node_scalars[i]);
      }
      EXPECT_EQ(streamed->static_perf, direct.static_perf);
    }
  }
  EXPECT_EQ(features->decoded(), lookups) << "one decode per Lookup";
  EXPECT_FALSE(features->Lookup(0xDEAD, 0xBEEF).has_value());
  EXPECT_EQ(features->decoded(), lookups) << "a miss decodes nothing";
}

// Entries of /proc/self/fd, and one past the highest open descriptor.
struct OpenDescriptors {
  std::size_t count = 0;
  int limit = 0;
};

OpenDescriptors CountOpenDescriptors() {
  OpenDescriptors out;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    ++out.count;
    out.limit = std::max(out.limit,
                         std::stoi(entry.path().filename().string()) + 1);
  }
  return out;
}

// A full lookup pass over a store of many small parts keeps at most one
// more descriptor open, and so runs under a descriptor limit only a few
// above what the process already holds. (A source holding one reader per
// part would exhaust the limit.)
TEST_F(StreamingTest, FeatureLookupKeepsFewPartsOpen) {
  DatasetOptions options = *options_;
  options.store_part_bytes = 64 << 10;
  StoreLoadStats stats;
  const TileDataset dataset = LoadOrBuildTileDataset(
      dir_.string(), GenerateCorpus(), *simulator_, options, nullptr, &stats);
  StreamingSampler sampler(stats.path, StreamTask::kTile, {});
  const std::shared_ptr<StreamedFeatures> features = sampler.features();
  constexpr std::size_t kHeadroom = 4;
  ASSERT_GT(sampler.part_count(), 2 * kHeadroom);

  const OpenDescriptors before = CountOpenDescriptors();
  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct LimitGuard {
    const struct rlimit& saved;
    ~LimitGuard() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  };
  std::string error;
  std::size_t hits = 0;
  {
    struct rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(before.limit) + kHeadroom;
    ASSERT_LT(low.rlim_cur, saved.rlim_cur);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    const LimitGuard restore{saved};
    try {
      for (const auto& k : dataset.kernels) {
        hits += features
                    ->Lookup(k.record.fingerprint,
                             k.record.kernel.graph.StructuralSignature())
                    .has_value();
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  EXPECT_EQ(error, "") << "the lookup pass ran out of descriptors";
  EXPECT_EQ(hits, dataset.kernels.size());
  const OpenDescriptors after = CountOpenDescriptors();
  EXPECT_LE(after.count, before.count + 1);
}

// ---- Training parity --------------------------------------------------------

// Every trained parameter of `a` equals `b`'s, bit for bit.
void ExpectSameParameters(core::LearnedCostModel& a,
                          core::LearnedCostModel& b) {
  const std::vector<nn::Parameter*> pa = a.params().params();
  const std::vector<nn::Parameter*> pb = b.params().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->name, pb[i]->name);
    ASSERT_EQ(pa[i]->value.size(), pb[i]->value.size()) << pa[i]->name;
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          pa[i]->value.size() * sizeof(float)),
              0)
        << pa[i]->name << " differs";
  }
}

TEST_F(StreamingTest, TileTrainingBitIdenticalToInMemory) {
  const std::string path = WriteTileStore("tile.tpds", 2048);
  const std::vector<int> ids = AllProgramIds();
  core::ModelConfig config = core::ModelConfig::TileTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 50;

  core::LearnedCostModel in_memory(config);
  core::PreparedCache in_memory_cache(in_memory, /*features=*/nullptr);
  const core::TrainStats a =
      core::TrainTileTask(in_memory, *tile_, ids, in_memory_cache);

  feat::ResetFeaturizeKernelInvocations();
  StreamingSampler sampler(path, StreamTask::kTile,
                           {.seed = options_->seed});
  core::LearnedCostModel streamed(config);
  core::PreparedCache streamed_cache(streamed, sampler.features().get());
  const core::TrainStats b =
      core::TrainTileTaskStreaming(streamed, sampler, ids, streamed_cache);
  EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0)
      << "streaming training touched the featurizer";

  // Bit-identical, not approximately equal: both trainers run one driver,
  // and a single-window sampler serves the in-memory record order.
  EXPECT_EQ(a.first_loss, b.first_loss);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.steps, b.steps);
  ExpectSameParameters(in_memory, streamed);
}

TEST_F(StreamingTest, FusionTrainingBitIdenticalToInMemory) {
  const std::string path = WriteFusionStore("fusion.tpds", 2048);
  const std::vector<int> ids = AllProgramIds();
  core::ModelConfig config = core::ModelConfig::FusionTaskDefault();
  config.hidden_dim = 16;
  config.opcode_embedding_dim = 8;
  config.train_steps = 50;

  core::LearnedCostModel in_memory(config);
  core::PreparedCache in_memory_cache(in_memory, nullptr);
  const core::TrainStats a =
      core::TrainFusionTask(in_memory, *fusion_, ids, in_memory_cache);

  feat::ResetFeaturizeKernelInvocations();
  StreamingSampler sampler(path, StreamTask::kFusion,
                           {.seed = options_->seed});
  core::LearnedCostModel streamed(config);
  core::PreparedCache streamed_cache(streamed, sampler.features().get());
  const core::TrainStats b = core::TrainFusionTaskStreaming(
      streamed, sampler, ids, streamed_cache);
  EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0);

  EXPECT_EQ(a.first_loss, b.first_loss);
  EXPECT_EQ(a.final_loss, b.final_loss);
  ExpectSameParameters(in_memory, streamed);
}

// ---- Streaming trainers, both tasks -----------------------------------------

class StreamingTrainerTest : public StreamingTest,
                             public ::testing::WithParamInterface<StreamTask> {
 protected:
  // A store of the parameter's task (or of `task`).
  std::string WriteStore(std::uint64_t part_bytes) {
    return WriteStore(GetParam(), part_bytes);
  }
  std::string WriteStore(StreamTask task, std::uint64_t part_bytes) {
    return task == StreamTask::kTile ? WriteTileStore("tile.tpds", part_bytes)
                                     : WriteFusionStore("fusion.tpds",
                                                        part_bytes);
  }

  core::ModelConfig SmallConfig(int train_steps) const {
    core::ModelConfig config = GetParam() == StreamTask::kTile
                                   ? core::ModelConfig::TileTaskDefault()
                                   : core::ModelConfig::FusionTaskDefault();
    config.hidden_dim = 16;
    config.opcode_embedding_dim = 8;
    config.train_steps = train_steps;
    return config;
  }

  // A store of the parameter's task split small enough for several windows.
  std::string WriteWindowedStore() { return WriteStore(2048); }

  // A sampler over windows of 3 records of `path`.
  StreamingSampler WindowedSampler(const std::string& path) const {
    return StreamingSampler(path, GetParam(),
                            {.window_records = 3, .seed = 99});
  }
  StreamingSampler WindowedSampler() {
    return WindowedSampler(WriteWindowedStore());
  }

  // Trains a small model on `ids` with the parameter's streaming trainer.
  core::TrainStats Train(StreamingSampler& sampler, std::span<const int> ids,
                         int train_steps) const {
    core::LearnedCostModel model(SmallConfig(train_steps));
    core::PreparedCache cache(model, sampler.features().get());
    return GetParam() == StreamTask::kTile
               ? core::TrainTileTaskStreaming(model, sampler, ids, cache)
               : core::TrainFusionTaskStreaming(model, sampler, ids, cache);
  }
};

INSTANTIATE_TEST_SUITE_P(
    BothTasks, StreamingTrainerTest,
    ::testing::Values(StreamTask::kTile, StreamTask::kFusion),
    [](const ::testing::TestParamInfo<StreamTask>& info) {
      return info.param == StreamTask::kTile ? "Tile" : "Fusion";
    });

TEST_P(StreamingTrainerTest, WindowedTrainingCompletesAllSteps) {
  // Writing the store featurizes; building the sampler and training must not.
  const std::string path = WriteWindowedStore();
  feat::ResetFeaturizeKernelInvocations();
  StreamingSampler sampler = WindowedSampler(path);
  ASSERT_GT(sampler.windows_per_epoch(), 1u);
  const core::TrainStats stats = Train(sampler, AllProgramIds(), 40);
  // Every window's features come from the store's featurized records.
  EXPECT_EQ(feat::FeaturizeKernelInvocations(), 0)
      << "building the windowed sampler or training touched the featurizer";
  EXPECT_EQ(stats.steps, 40);
  EXPECT_TRUE(std::isfinite(stats.first_loss));
  EXPECT_TRUE(std::isfinite(stats.final_loss));
}

// Training on program 0 alone leaves every window of the other programs'
// records empty. The default step budget spreads the steps over every
// window of an epoch, so the trainer must skip empty windows to finish.
TEST_P(StreamingTrainerTest, SomeEmptyWindowsAreSkipped) {
  const std::vector<int> ids = {0};
  StreamingSampler sampler = WindowedSampler();
  std::size_t empty = 0;
  for (std::size_t w = 0; w < sampler.windows_per_epoch(); ++w) {
    const StreamWindow window = sampler.Window(w);
    bool any = false;
    for (std::size_t i = 0; i < window.size(); ++i) {
      any = any || window.program_id(i) == 0;
    }
    empty += !any;
  }
  ASSERT_GT(empty, 0u);
  ASSERT_LT(empty, sampler.windows_per_epoch());

  const core::TrainStats stats = Train(sampler, ids, 40);
  EXPECT_EQ(stats.steps, 40);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_NE(stats.final_loss, 0.0) << "no step took a batch";
}

// An empty split throws after a full epoch of empty windows, also when no
// step is asked for.
TEST_P(StreamingTrainerTest, AllEmptyWindowsThrow) {
  const std::vector<int> unknown = {static_cast<int>(corpus_->size())};
  StreamingSampler sampler = WindowedSampler();
  ASSERT_GT(sampler.windows_per_epoch(), 1u);
  for (const int steps : {40, 0}) {
    EXPECT_THROW(Train(sampler, unknown, steps), std::invalid_argument)
        << "train_steps " << steps;
  }
}

TEST_P(StreamingTrainerTest, TaskMismatchThrows) {
  const StreamTask other = GetParam() == StreamTask::kTile
                               ? StreamTask::kFusion
                               : StreamTask::kTile;
  StreamingSampler sampler(WriteStore(other, 0), other, {});
  EXPECT_THROW(Train(sampler, AllProgramIds(), 10), std::invalid_argument);
}

TEST_P(StreamingTrainerTest, NoTrainingProgramsThrows) {
  const std::vector<int> none;  // no program ids -> every window empty
  StreamingSampler sampler(WriteStore(0), GetParam(), {});
  EXPECT_THROW(Train(sampler, none, 10), std::invalid_argument);
}

}  // namespace
}  // namespace tpuperf::data
