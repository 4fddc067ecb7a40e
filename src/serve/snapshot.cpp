#include "serve/snapshot.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "dataset/store.h"
#include "dataset/wire.h"

namespace tpuperf::serve {
namespace {

using core::FeaturePlacement;
using core::GnnKind;
using core::LossKind;
using core::ModelConfig;
using core::ReductionKind;
using data::Dec;
using data::Enc;
using data::StoreError;

std::string EncodeConfigPayload(const ModelConfig& c) {
  Enc e;
  e.U8(static_cast<std::uint8_t>(c.gnn));
  e.U8(static_cast<std::uint8_t>(c.reduction));
  e.U8(c.directed_edges ? 1 : 0);
  e.U8(c.use_static_perf ? 1 : 0);
  e.U8(static_cast<std::uint8_t>(c.static_perf_placement));
  e.U8(c.use_tile_features ? 1 : 0);
  e.U8(static_cast<std::uint8_t>(c.tile_placement));
  e.I32(c.opcode_embedding_dim);
  e.I32(c.hidden_dim);
  e.I32(c.gnn_layers);
  e.I32(c.node_final_layers);
  e.I32(c.transformer_layers);
  e.I32(c.transformer_heads);
  e.I32(c.gat_heads);
  e.F32(c.dropout);
  e.U8(static_cast<std::uint8_t>(c.loss));
  e.U8(c.log_target ? 1 : 0);
  e.F64(c.learning_rate);
  e.F64(c.lr_decay);
  e.U8(static_cast<std::uint8_t>(c.grad_clip));
  e.F64(c.grad_clip_norm);
  e.I32(c.train_steps);
  e.I32(c.configs_per_batch);
  e.I32(c.kernels_per_batch);
  e.U64(c.seed);
  return e.bytes();
}

std::uint8_t DecodeEnum(Dec& d, std::uint8_t max_value, const char* what) {
  const std::uint8_t v = d.U8();
  if (v > max_value) {
    d.Fail(std::string("invalid ") + what + " value " + std::to_string(v));
  }
  return v;
}

// Bounds on the config's sizes, checked before the model is built so that
// a damaged or crafted config record cannot make the load allocate a huge
// model first. Each upper bound is 4x the largest value the paper uses
// (§5, Tables 5-7: opcode embedding 256, hidden 1024, 3 GNN, node-final and
// Transformer layers, 4 Transformer and GAT heads).
struct SizeBound {
  const char* name;
  int ModelConfig::*field;
  int min, max;
};
constexpr SizeBound kSizeBounds[] = {
    {"opcode_embedding_dim", &ModelConfig::opcode_embedding_dim, 1, 4 * 256},
    {"hidden_dim", &ModelConfig::hidden_dim, 1, 4 * 1024},
    {"gnn_layers", &ModelConfig::gnn_layers, 0, 4 * 3},
    {"node_final_layers", &ModelConfig::node_final_layers, 0, 4 * 3},
    {"transformer_layers", &ModelConfig::transformer_layers, 0, 4 * 3},
    {"transformer_heads", &ModelConfig::transformer_heads, 0, 4 * 4},
    {"gat_heads", &ModelConfig::gat_heads, 0, 4 * 4},
};

ModelConfig DecodeConfigPayload(Dec& d) {
  ModelConfig c;
  c.gnn = static_cast<GnnKind>(
      DecodeEnum(d, static_cast<std::uint8_t>(GnnKind::kGat), "gnn kind"));
  c.reduction = static_cast<ReductionKind>(DecodeEnum(
      d, static_cast<std::uint8_t>(ReductionKind::kTransformer), "reduction"));
  c.directed_edges = d.U8() != 0;
  c.use_static_perf = d.U8() != 0;
  c.static_perf_placement = static_cast<FeaturePlacement>(DecodeEnum(
      d, static_cast<std::uint8_t>(FeaturePlacement::kKernelEmbedding),
      "static-perf placement"));
  c.use_tile_features = d.U8() != 0;
  c.tile_placement = static_cast<FeaturePlacement>(DecodeEnum(
      d, static_cast<std::uint8_t>(FeaturePlacement::kKernelEmbedding),
      "tile placement"));
  c.opcode_embedding_dim = d.I32();
  c.hidden_dim = d.I32();
  c.gnn_layers = d.I32();
  c.node_final_layers = d.I32();
  c.transformer_layers = d.I32();
  c.transformer_heads = d.I32();
  c.gat_heads = d.I32();
  c.dropout = d.F32();
  c.loss = static_cast<LossKind>(
      DecodeEnum(d, static_cast<std::uint8_t>(LossKind::kMse), "loss kind"));
  c.log_target = d.U8() != 0;
  c.learning_rate = d.F64();
  c.lr_decay = d.F64();
  c.grad_clip = static_cast<nn::GradClip>(DecodeEnum(
      d, static_cast<std::uint8_t>(nn::GradClip::kNorm), "grad-clip kind"));
  c.grad_clip_norm = d.F64();
  c.train_steps = d.I32();
  c.configs_per_batch = d.I32();
  c.kernels_per_batch = d.I32();
  c.seed = d.U64();
  for (const SizeBound& b : kSizeBounds) {
    const int v = c.*b.field;
    if (v < b.min || v > b.max) {
      d.Fail(std::string(b.name) + " " + std::to_string(v) + " is outside [" +
             std::to_string(b.min) + ", " + std::to_string(b.max) + "]");
    }
  }
  return c;
}

// The three scalers of a model, by the name their records carry.
constexpr const char* kScalerNames[] = {"node", "tile", "perf"};
constexpr int kScalerWidths[] = {feat::kNodeScalarFeatures,
                                 feat::kTileFeatures,
                                 feat::kStaticPerfFeatures};

std::string EncodeScalerPayload(const std::string& name,
                                const feat::FeatureScaler& scaler) {
  Enc e;
  e.Str(name);
  e.U32(static_cast<std::uint32_t>(scaler.num_features()));
  e.I64(scaler.observed());
  for (const double v : scaler.mins()) e.F64(v);
  for (const double v : scaler.maxs()) e.F64(v);
  return e.bytes();
}

// Decodes one scaler record into its slot of `scalers` (indexed like
// kScalerNames), rejecting an unknown name, a repeated one and a width
// other than the featurizer's before allocating.
void DecodeScalerPayload(
    Dec& d, std::array<std::optional<feat::FeatureScaler>, 3>& scalers) {
  const std::string name = d.Str();
  const auto it = std::find(std::begin(kScalerNames), std::end(kScalerNames),
                            std::string_view(name));
  if (it == std::end(kScalerNames)) d.Fail("unknown scaler \"" + name + "\"");
  const auto slot = static_cast<std::size_t>(it - std::begin(kScalerNames));
  if (scalers[slot].has_value()) d.Fail("duplicate scaler \"" + name + "\"");
  const std::uint32_t width = d.U32();
  if (width != static_cast<std::uint32_t>(kScalerWidths[slot])) {
    d.Fail("scaler \"" + name + "\" width " + std::to_string(width) +
           " does not match the featurizer's " +
           std::to_string(kScalerWidths[slot]));
  }
  const long observed = static_cast<long>(d.I64());
  d.RequireCount(2 * std::uint64_t{width}, sizeof(double), "scaler statistic");
  std::vector<double> mins(width);
  for (auto& v : mins) v = d.F64();
  std::vector<double> maxs(width);
  for (auto& v : maxs) v = d.F64();
  scalers[slot] = feat::FeatureScaler::FromStats(std::move(mins),
                                                 std::move(maxs), observed);
}

std::string EncodeParamsPayload(const nn::ParamStore& store) {
  const std::vector<const nn::Parameter*> params = store.params();
  Enc e;
  e.U32(static_cast<std::uint32_t>(params.size()));
  for (const nn::Parameter* p : params) {
    e.Str(p->name);
    e.I32(p->value.rows());
    e.I32(p->value.cols());
    for (const float v : p->value.flat()) e.F32(v);
  }
  return e.bytes();
}

// Decodes the parameter values, checking the count and each name and shape
// against `store` (the freshly built model's) before allocating them.
std::vector<nn::Matrix> DecodeParamsPayload(Dec& d,
                                            const nn::ParamStore& store) {
  const std::vector<const nn::Parameter*> params = store.params();
  const std::uint32_t count = d.U32();
  if (count != params.size()) {
    d.Fail("parameter count " + std::to_string(count) + " does not match "
           "the model's " + std::to_string(params.size()));
  }
  std::vector<nn::Matrix> values;
  values.reserve(params.size());
  for (const nn::Parameter* p : params) {
    const std::string name = d.Str();
    if (name != p->name) {
      d.Fail("parameter \"" + name + "\" where the model has \"" + p->name +
             "\"");
    }
    const std::int32_t rows = d.I32();
    const std::int32_t cols = d.I32();
    if (rows != p->value.rows() || cols != p->value.cols()) {
      d.Fail("parameter \"" + name + "\" is " + std::to_string(rows) + "x" +
             std::to_string(cols) + " where the model's is " +
             p->value.ShapeString());
    }
    d.RequireCount(p->value.size(), sizeof(float), "parameter value");
    nn::Matrix& value = values.emplace_back(rows, cols);
    for (float& v : value.flat()) v = d.F32();
  }
  return values;
}

}  // namespace

void SaveModelSnapshot(const std::string& path,
                       const core::LearnedCostModel& model) {
  if (!model.fitted()) {
    throw std::invalid_argument(
        "SaveModelSnapshot: the model's scalers are not fitted");
  }
  const feat::FeatureScaler* scalers[] = {
      &model.node_scaler(), &model.tile_scaler(), &model.perf_scaler()};
  data::DatasetWriter writer(path);
  writer.AddRaw(data::kModelConfigRecordType,
                EncodeConfigPayload(model.config()));
  for (std::size_t i = 0; i < std::size(kScalerNames); ++i) {
    writer.AddRaw(data::kScalerRecordType,
                  EncodeScalerPayload(kScalerNames[i], *scalers[i]));
  }
  writer.AddRaw(data::kModelParamsRecordType,
                EncodeParamsPayload(model.param_store()));
  writer.Finish();
}

std::unique_ptr<core::LearnedCostModel> LoadModelSnapshot(
    const std::string& path) {
  // Models a transient load failure (publish race, flaky filesystem) — the
  // retrying loader below must absorb it.
  if (core::FaultPointFires("snapshot.load_fail")) {
    throw StoreError(path +
                     ": injected transient load failure (fault point "
                     "snapshot.load_fail)");
  }
  data::DatasetReader reader(path);
  std::unique_ptr<core::LearnedCostModel> model;
  std::array<std::optional<feat::FeatureScaler>, 3> scalers;
  std::optional<std::vector<nn::Matrix>> values;
  reader.ForEachRecord([&](const data::RecordView& record) {
    Dec d(record.payload.data(), record.payload.size(), record.context);
    if (model == nullptr && record.type != data::kModelConfigRecordType) {
      d.Fail("the config record must come first");
    }
    try {
      switch (record.type) {
        case data::kModelConfigRecordType:
          if (model != nullptr) d.Fail("duplicate config record");
          model = std::make_unique<core::LearnedCostModel>(
              DecodeConfigPayload(d));
          break;
        case data::kScalerRecordType:
          DecodeScalerPayload(d, scalers);
          break;
        case data::kModelParamsRecordType:
          if (values.has_value()) d.Fail("duplicate parameter record");
          values = DecodeParamsPayload(d, model->param_store());
          break;
        default:
          d.Fail("record type " + std::to_string(record.type) +
                 " does not belong in a model snapshot");
      }
    } catch (const StoreError&) {
      throw;
    } catch (const std::exception& e) {
      d.Fail(e.what());
    }
    if (!d.AtEnd()) d.Fail("trailing bytes inside record payload");
  });
  if (model == nullptr) throw StoreError(path + ": no config record");
  for (std::size_t i = 0; i < scalers.size(); ++i) {
    if (!scalers[i].has_value()) {
      throw StoreError(path + ": no \"" + kScalerNames[i] +
                       "\" scaler record");
    }
  }
  if (!values.has_value()) throw StoreError(path + ": no parameter record");
  model->Restore(*std::move(scalers[0]), *std::move(scalers[1]),
                 *std::move(scalers[2]), *std::move(values));
  return model;
}

std::unique_ptr<core::LearnedCostModel> LoadModelSnapshotWithRetry(
    const std::string& path, int max_attempts,
    std::chrono::microseconds initial_backoff) {
  max_attempts = std::max(1, max_attempts);
  std::chrono::microseconds backoff =
      std::max(initial_backoff, std::chrono::microseconds(0));
  constexpr std::chrono::microseconds kMaxBackoff(100000);
  for (int attempt = 1;; ++attempt) {
    try {
      return LoadModelSnapshot(path);
    } catch (const StoreError&) {
      if (attempt >= max_attempts) throw;
    }
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
}

}  // namespace tpuperf::serve
