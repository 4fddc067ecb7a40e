#include "core/cost_model.h"

#include <cmath>
#include <stdexcept>

#include "core/fault_injection.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace tpuperf::core {
namespace {

// A batch-input leaf holding a copy of `m`, allocated through the tape's
// arena.
nn::Tensor ArenaInput(nn::Tape& tape, const nn::Matrix& m,
                      nn::InputKind input) {
  nn::Matrix copy = tape.NewMatrixUninit(m.rows(), m.cols());
  std::copy(m.flat().begin(), m.flat().end(), copy.data());
  return tape.InputLeaf(std::move(copy), input);
}

// Width of the option-1 extras appended to every node's features.
int NodeExtraWidth(const ModelConfig& c) {
  int extra = 0;
  if (c.use_tile_features &&
      c.tile_placement == FeaturePlacement::kNodeFeatures) {
    extra += feat::kTileFeatures;
  }
  if (c.use_static_perf &&
      c.static_perf_placement == FeaturePlacement::kNodeFeatures) {
    extra += feat::kStaticPerfFeatures;
  }
  return extra;
}

// Width of the option-2 extras appended to the kernel embedding.
int KernelExtraWidth(const ModelConfig& c) {
  int extra = 0;
  if (c.use_tile_features &&
      c.tile_placement == FeaturePlacement::kKernelEmbedding) {
    extra += feat::kTileFeatures;
  }
  if (c.use_static_perf &&
      c.static_perf_placement == FeaturePlacement::kKernelEmbedding) {
    extra += feat::kStaticPerfFeatures;
  }
  return extra;
}

}  // namespace

LearnedCostModel::LearnedCostModel(ModelConfig config)
    : config_(config),
      store_(std::make_unique<nn::ParamStore>()),
      init_rng_(config.seed),
      dropout_rng_(config.seed ^ 0xD20ull),
      node_scaler_(feat::kNodeScalarFeatures),
      tile_scaler_(feat::kTileFeatures),
      perf_scaler_(feat::kStaticPerfFeatures) {
  const int hidden = config_.hidden_dim;
  opcode_embedding_ = nn::Embedding(*store_, "opcode_embedding",
                                    ir::kNumOpCodes,
                                    config_.opcode_embedding_dim, init_rng_);
  const int input_width = config_.opcode_embedding_dim +
                          feat::kNodeScalarFeatures + NodeExtraWidth(config_);
  f1_ = nn::Mlp(*store_, "f1", input_width, {hidden}, init_rng_);

  switch (config_.gnn) {
    case GnnKind::kGraphSage:
      for (int l = 0; l < config_.gnn_layers; ++l) {
        sage_layers_.emplace_back(*store_, "sage" + std::to_string(l), hidden,
                                  config_.directed_edges,
                                  /*l2_normalize=*/true, init_rng_);
      }
      break;
    case GnnKind::kGat:
      for (int l = 0; l < config_.gnn_layers; ++l) {
        gat_layers_.emplace_back(*store_, "gat" + std::to_string(l), hidden,
                                 config_.gat_heads, init_rng_);
      }
      break;
    case GnnKind::kNone:
      break;
  }

  std::vector<int> final_sizes(
      static_cast<size_t>(std::max(0, config_.node_final_layers)), hidden);
  node_final_ = nn::Mlp(*store_, "node_final", hidden, std::move(final_sizes),
                        init_rng_);

  switch (config_.reduction) {
    case ReductionKind::kPerNode:
      per_node_head_ = nn::Linear(*store_, "per_node_head", hidden, 1,
                                  init_rng_);
      kernel_embedding_dim_ = 1;
      break;
    case ReductionKind::kColumnWise:
      kernel_embedding_dim_ = 2 * hidden;  // mean ++ max (Table 5)
      break;
    case ReductionKind::kLstm:
      reduction_lstm_ = nn::Lstm(*store_, "reduction_lstm", hidden, hidden,
                                 init_rng_);
      kernel_embedding_dim_ = hidden;
      break;
    case ReductionKind::kTransformer:
      reduction_transformer_ = nn::TransformerEncoder(
          *store_, "reduction_tx", hidden, config_.transformer_heads,
          config_.transformer_layers, init_rng_);
      kernel_embedding_dim_ = hidden;
      break;
  }

  output_head_ =
      nn::Linear(*store_, "output_head",
                 kernel_embedding_dim_ + KernelExtraWidth(config_), 1,
                 init_rng_, /*bias=*/true);
  // Start the output head near zero so early predictions sit at the bias
  // (see SetOutputBias) instead of the random-projection scale of the
  // kernel embedding.
  for (float& w : output_head_.weight_param()->value.flat()) w *= 0.1f;
}

void LearnedCostModel::FitNodeScaler(const ir::Graph& kernel) {
  FitNodeScaler(feat::FeaturizeKernel(kernel));
}

void LearnedCostModel::FitNodeScaler(const feat::KernelFeatures& features) {
  plan_cache_.Clear();
  for (const auto& row : features.node_scalars) node_scaler_.Observe(row);
  perf_scaler_.Observe(features.static_perf);
}

void LearnedCostModel::FitTileScaler(const ir::TileConfig& tile) {
  plan_cache_.Clear();
  tile_scaler_.Observe(feat::TileFeatures(tile));
}

PreparedKernel LearnedCostModel::Prepare(const ir::Graph& kernel) const {
  return Prepare(feat::FeaturizeKernel(kernel));
}

PreparedKernel LearnedCostModel::Prepare(
    const feat::KernelFeatures& kf) const {
  if (!fitted_) {
    throw std::logic_error("LearnedCostModel: scalers not fitted");
  }
  PreparedKernel pk;
  pk.num_nodes = kf.num_nodes();
  pk.opcode_ids = kf.opcode_ids;
  pk.node_features = nn::Matrix(pk.num_nodes, feat::kNodeScalarFeatures);
  for (int i = 0; i < pk.num_nodes; ++i) {
    node_scaler_.TransformRow(kf.node_scalars[static_cast<size_t>(i)],
                              pk.node_features.row(i));
  }
  // The symmetric-mean operator is only read by the undirected GraphSAGE
  // ablation; skip building it otherwise.
  const bool need_sym_norm =
      config_.gnn == GnnKind::kGraphSage && !config_.directed_edges;
  pk.structure = nn::BuildGraphStructure(kf.operand_lists, need_sym_norm);
  pk.static_perf.resize(feat::kStaticPerfFeatures);
  perf_scaler_.TransformRow(kf.static_perf, pk.static_perf);
  return pk;
}

std::vector<float> LearnedCostModel::ScaledTileFeatures(
    const ir::TileConfig& tile) const {
  const std::vector<double> raw = feat::TileFeatures(tile);
  std::vector<float> scaled(raw.size());
  tile_scaler_.TransformRow(raw, scaled);
  return scaled;
}

PreparedBatch LearnedCostModel::PrepareBatch(
    std::span<const BatchItem> items) const {
  if (items.empty()) throw std::invalid_argument("PrepareBatch: empty batch");
  const int batch = static_cast<int>(items.size());
  int total_nodes = 0;
  std::vector<const nn::GraphStructure*> structures;
  structures.reserve(items.size());
  for (const BatchItem& item : items) {
    if (item.kernel == nullptr) {
      throw std::invalid_argument("PrepareBatch: null kernel");
    }
    if (item.kernel->num_nodes == 0) {
      throw std::invalid_argument("PrepareBatch: empty kernel");
    }
    if (config_.use_tile_features && item.tile == nullptr) {
      throw std::invalid_argument("PrepareBatch: model expects tile configs");
    }
    total_nodes += item.kernel->num_nodes;
    structures.push_back(&item.kernel->structure);
  }

  PreparedBatch pb;
  pb.structure = nn::PackGraphStructures(structures);
  pb.opcode_ids.resize(static_cast<size_t>(total_nodes));
  pb.node_features = nn::Matrix(total_nodes, feat::kNodeScalarFeatures);
  pb.static_perf = nn::Matrix(batch, feat::kStaticPerfFeatures);
  if (config_.use_tile_features) {
    pb.tile_features = nn::Matrix(batch, feat::kTileFeatures);
  }
  // Each item owns rows [offsets[b], offsets[b+1]) of the packed matrices,
  // plus its own per-kernel row.
  const std::span<const int> offsets = pb.offsets();
  for (int b = 0; b < batch; ++b) {
    const BatchItem& item = items[static_cast<size_t>(b)];
    const PreparedKernel& pk = *item.kernel;
    int row = offsets[static_cast<size_t>(b)];
    std::copy(pk.opcode_ids.begin(), pk.opcode_ids.end(),
              pb.opcode_ids.begin() + row);
    for (int i = 0; i < pk.num_nodes; ++i, ++row) {
      std::copy(pk.node_features.row(i).begin(), pk.node_features.row(i).end(),
                pb.node_features.row(row).begin());
    }
    std::copy(pk.static_perf.begin(), pk.static_perf.end(),
              pb.static_perf.row(b).begin());
    if (config_.use_tile_features) {
      const std::vector<float> scaled = ScaledTileFeatures(*item.tile);
      std::copy(scaled.begin(), scaled.end(), pb.tile_features.row(b).begin());
    }
  }
  return pb;
}

double LearnedCostModel::PredictScore(const PreparedKernel& kernel,
                                      const ir::TileConfig* tile) const {
  // Scored as a one-item batch through PredictBatch's forward, so the two
  // agree bit for bit by construction.
  const BatchItem item{&kernel, tile};
  return PredictBatch(PrepareBatch({&item, 1})).front();
}

double LearnedCostModel::PredictSeconds(const PreparedKernel& kernel,
                                        const ir::TileConfig* tile) const {
  const double score = PredictScore(kernel, tile);
  return config_.log_target ? std::exp(score) : score;
}

std::vector<double> LearnedCostModel::PredictBatch(
    const PreparedBatch& batch) const {
  const int b = batch.num_kernels();
  const int n = batch.total_nodes();
  std::shared_ptr<const plan::CompiledPlan> plan = plan_cache_.Lookup(b, n);
  if (plan == nullptr) {
    const auto [max_kernels, max_nodes] = plan::PlanCache::Bucket(b, n);
    plan = CompilePlan(max_kernels, max_nodes);
    plan_cache_.Insert(b, n, plan);
  }
  return PredictBatchWithPlan(*plan, batch);
}

std::shared_ptr<const plan::CompiledPlan> LearnedCostModel::CompilePlan(
    int max_kernels, int max_total_nodes, bool poison_dead_buffers) const {
  // Models a plan-compile failure, before any recording work. Every
  // Predict* compiles through here on a plan-cache miss, and there is no
  // other scoring path: the call throws, and the serving engine treats it
  // like any model error (the batch fails, the circuit breaker counts it,
  // and the batch is answered analytically).
  MaybeInjectFault("plan.compile_fail");
  if (!fitted_) {
    throw std::logic_error("CompilePlan: scalers not fitted");
  }
  if (max_kernels < 1 || max_total_nodes < max_kernels) {
    throw std::invalid_argument("CompilePlan: bad capacities");
  }

  // The schedule is the inference forward itself, recorded over a synthetic
  // batch of one kernel with two nodes (so node and kernel row counts
  // differ).
  const nn::GraphStructure graph = nn::BuildGraphStructure({{}, {0}});
  const nn::GraphStructure* const blocks[] = {&graph};
  PreparedBatch batch;
  batch.structure = nn::PackGraphStructures(blocks);
  batch.opcode_ids = {0, 0};
  batch.node_features = nn::Matrix(2, feat::kNodeScalarFeatures);
  batch.static_perf = nn::Matrix(1, feat::kStaticPerfFeatures);
  if (config_.use_tile_features) {
    batch.tile_features = nn::Matrix(1, feat::kTileFeatures);
  }
  nn::ScheduleRecorder recorder(batch.structure, batch.opcode_ids);
  nn::Tape tape(/*arena=*/nullptr, &recorder);
  const nn::Tensor out =
      ForwardBatchImpl(tape, batch, /*training=*/false, dropout_rng_);

  plan::CompiledPlan::Options options;
  options.poison_dead_buffers = poison_dead_buffers;
  return std::make_shared<const plan::CompiledPlan>(
      recorder.Finish(out.node()), max_kernels, max_total_nodes, options);
}

std::vector<double> LearnedCostModel::PredictBatchWithPlan(
    const plan::CompiledPlan& plan, const PreparedBatch& batch) const {
  std::vector<double> scores(static_cast<size_t>(batch.num_kernels()));
  plan.Run(plan::PlanInput::FromBatch(batch), scores);
  return scores;
}

std::vector<double> LearnedCostModel::PredictBatchSeconds(
    const PreparedBatch& batch) const {
  std::vector<double> scores = PredictBatch(batch);
  if (config_.log_target) {
    for (double& s : scores) s = std::exp(s);
  }
  return scores;
}

nn::Tensor LearnedCostModel::ForwardBatch(nn::Tape& tape,
                                          const PreparedBatch& batch,
                                          bool training) {
  plan_cache_.Clear();
  return ForwardBatchImpl(tape, batch, training, dropout_rng_);
}

nn::Tensor LearnedCostModel::ForwardBatchImpl(
    nn::Tape& tape, const PreparedBatch& batch, bool training,
    std::mt19937_64& dropout_rng) const {
  const int total = batch.total_nodes();
  const int num_kernels = batch.num_kernels();
  if (num_kernels == 0 || total == 0) {
    throw std::invalid_argument("ForwardBatch: empty batch");
  }
  if (config_.use_tile_features && batch.tile_features.empty()) {
    throw std::invalid_argument("ForwardBatch: batch lacks tile features");
  }
  const std::span<const int> offsets = batch.offsets();

  // ---- Node inputs: opcode embedding ++ scalars (++ option-1 extras) ------
  // One gather / one leaf over all nodes of the batch.
  nn::Tensor embed = opcode_embedding_.Forward(tape, batch.opcode_ids);
  nn::Tensor scalars =
      ArenaInput(tape, batch.node_features, nn::InputKind::kNodeFeatures);
  std::vector<nn::Tensor> parts = {embed, scalars};

  // Per-kernel feature rows, expanded to one row per node of the kernel.
  if (config_.use_tile_features &&
      config_.tile_placement == FeaturePlacement::kNodeFeatures) {
    parts.push_back(nn::BroadcastSegmentsOp(
        tape,
        ArenaInput(tape, batch.tile_features, nn::InputKind::kTileFeatures),
        offsets));
  }
  if (config_.use_static_perf &&
      config_.static_perf_placement == FeaturePlacement::kNodeFeatures) {
    parts.push_back(nn::BroadcastSegmentsOp(
        tape, ArenaInput(tape, batch.static_perf, nn::InputKind::kStaticPerf),
        offsets));
  }

  nn::Tensor x = nn::ConcatColsOp(tape, parts);
  nn::Tensor h = f1_.Forward(tape, x);
  if (training && config_.dropout > 0) {
    h = nn::DropoutOp(tape, h, config_.dropout, dropout_rng);
  }

  // ---- GNN (block-diagonal aggregation, dense transforms batched) ---------
  for (const auto& layer : sage_layers_) {
    h = layer.Forward(tape, h, batch.structure);
  }
  for (const auto& layer : gat_layers_) {
    h = layer.Forward(tape, h, batch.structure);
  }

  h = node_final_.Forward(tape, h);
  if (training && config_.dropout > 0) {
    h = nn::DropoutOp(tape, h, config_.dropout, dropout_rng);
  }

  // ---- Segment-aware reduction to [B, kernel_embedding_dim] ---------------
  nn::Tensor kernel_embedding;
  switch (config_.reduction) {
    case ReductionKind::kPerNode: {
      nn::Tensor per_node = per_node_head_.Forward(tape, h);        // [N, 1]
      kernel_embedding = nn::SegmentSumOp(tape, per_node, offsets);  // [B, 1]
      break;
    }
    case ReductionKind::kColumnWise: {
      const nn::Tensor cols[] = {nn::SegmentMeanOp(tape, h, offsets),
                                 nn::SegmentMaxOp(tape, h, offsets)};
      kernel_embedding = nn::ConcatColsOp(tape, cols);
      break;
    }
    case ReductionKind::kLstm: {
      kernel_embedding = reduction_lstm_.ForwardBatched(tape, h, offsets);
      break;
    }
    case ReductionKind::kTransformer: {
      // The whole encoder stack runs packed: dense transforms (q/k/v, layer
      // norms, FFN) as single GEMMs over every node of the batch, attention
      // (O(n^2) per kernel, never mixing kernels) block-diagonally per
      // segment through one fused op.
      nn::Tensor enc = reduction_transformer_.Forward(tape, h, offsets);
      kernel_embedding = nn::SegmentMeanOp(tape, enc, offsets);
      break;
    }
  }

  // ---- Option-2 extras ------------------------------------------------------
  std::vector<nn::Tensor> kparts = {kernel_embedding};
  if (config_.use_tile_features &&
      config_.tile_placement == FeaturePlacement::kKernelEmbedding) {
    kparts.push_back(ArenaInput(tape, batch.tile_features,
                                nn::InputKind::kTileFeatures));
  }
  if (config_.use_static_perf &&
      config_.static_perf_placement == FeaturePlacement::kKernelEmbedding) {
    kparts.push_back(
        ArenaInput(tape, batch.static_perf, nn::InputKind::kStaticPerf));
  }
  nn::Tensor merged = kparts.size() == 1 ? kparts.front()
                                         : nn::ConcatColsOp(tape, kparts);

  // Linear output head without activation (§3.2); [B, 1].
  return output_head_.Forward(tape, merged);
}

void LearnedCostModel::SetOutputBias(float value) {
  plan_cache_.Clear();
  nn::Parameter* bias = output_head_.bias_param();
  if (bias != nullptr) bias->value.Fill(value);
}

void LearnedCostModel::Restore(feat::FeatureScaler node_scaler,
                               feat::FeatureScaler tile_scaler,
                               feat::FeatureScaler perf_scaler,
                               std::vector<nn::Matrix> values) {
  if (node_scaler.num_features() != feat::kNodeScalarFeatures ||
      tile_scaler.num_features() != feat::kTileFeatures ||
      perf_scaler.num_features() != feat::kStaticPerfFeatures) {
    throw std::invalid_argument(
        "LearnedCostModel::Restore: scaler width differs from the "
        "featurizer's");
  }
  const std::vector<nn::Parameter*> params = store_->params();
  if (values.size() != params.size()) {
    throw std::invalid_argument(
        "LearnedCostModel::Restore: parameter count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!values[i].same_shape(params[i]->value)) {
      throw std::invalid_argument("LearnedCostModel::Restore: shape mismatch "
                                  "for " + params[i]->name);
    }
  }
  plan_cache_.Clear();
  node_scaler_ = std::move(node_scaler);
  tile_scaler_ = std::move(tile_scaler);
  perf_scaler_ = std::move(perf_scaler);
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
  fitted_ = true;
}

}  // namespace tpuperf::core
