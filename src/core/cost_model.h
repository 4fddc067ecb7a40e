// The learned performance model (paper §3, Fig. 3).
//
// Pipeline: opcode embedding ++ scaled node features (optionally ++ kernel
// features, option 1) -> feedforward f1 -> GNN (GraphSAGE / GAT / none) ->
// node final layers -> reduction (per-node / column-wise / LSTM /
// Transformer) -> (optionally ++ kernel features, option 2) -> linear ->
// scalar runtime prediction.
#pragma once

#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/model_config.h"
#include "features/featurizer.h"
#include "features/scaler.h"
#include "ir/graph.h"
#include "ir/tile.h"
#include "nn/attention.h"
#include "nn/gnn.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "plan/plan.h"

namespace tpuperf::core {

// A kernel featurized and scaled once, reusable across tile configs and
// training steps.
struct PreparedKernel {
  std::vector<int> opcode_ids;
  nn::Matrix node_features;          // [n, kNodeScalarFeatures], scaled
  nn::GraphStructure structure;      // adjacency operators
  std::vector<float> static_perf;    // scaled, kStaticPerfFeatures wide
  int num_nodes = 0;
};

// One (kernel, tile) pair of a prediction batch. `tile` may be null for
// models that do not use tile features.
struct BatchItem {
  const PreparedKernel* kernel = nullptr;
  const ir::TileConfig* tile = nullptr;
};

// N prepared kernels packed into one batch: concatenated node features, a
// block-diagonal graph structure, and per-kernel rows of kernel-level
// features. The graph structure references the source PreparedKernels'
// adjacency matrices rather than copying them, so the PreparedKernels must
// outlive the batch (and any tape built from it); features are owned.
struct PreparedBatch {
  std::vector<int> opcode_ids;          // [total_nodes]
  nn::Matrix node_features;             // [total_nodes, kNodeScalarFeatures]
  nn::BatchedGraphStructure structure;  // block-diagonal adjacency
  nn::Matrix static_perf;               // [B, kStaticPerfFeatures], scaled
  nn::Matrix tile_features;             // [B, kTileFeatures] scaled; empty
                                        // when the model has no tile features

  int num_kernels() const noexcept { return structure.num_graphs(); }
  int total_nodes() const noexcept { return structure.total_nodes(); }
  std::span<const int> offsets() const noexcept { return structure.offsets; }
};

class LearnedCostModel {
 public:
  explicit LearnedCostModel(ModelConfig config);

  const ModelConfig& config() const noexcept { return config_; }

  // ---- Feature scaling -----------------------------------------------------
  // Scalers must be fitted (or restored) before Prepare/Predict.
  void FitNodeScaler(const ir::Graph& kernel);    // observe one kernel
  // As above from pre-extracted raw features (the dataset store's warm
  // path); observes the same rows in the same order, so the fitted scaler
  // state is bit-identical to featurizing the graph in-process.
  void FitNodeScaler(const feat::KernelFeatures& features);
  void FitTileScaler(const ir::TileConfig& tile); // observe one tile config
  void FinishFitting() {
    plan_cache_.Clear();
    fitted_ = true;
  }
  bool fitted() const noexcept { return fitted_; }

  PreparedKernel Prepare(const ir::Graph& kernel) const;
  // Prepares from pre-extracted raw features without touching the graph (no
  // feat::FeaturizeKernel call). Produces the same PreparedKernel as
  // Prepare(graph) when `features` came from FeaturizeKernel(graph).
  PreparedKernel Prepare(const feat::KernelFeatures& features) const;

  // Packs N prepared (kernel, tile) pairs into one batch. Tile configs are
  // scaled here, once, so the packed batch is reusable across predictions.
  PreparedBatch PrepareBatch(std::span<const BatchItem> items) const;

  // ---- Prediction ----------------------------------------------------------
  // Every prediction replays a compiled plan (src/plan) from the model's own
  // plan cache: PredictBatch looks up a plan covering the batch shape,
  // compiles one on a miss (CompilePlan, so a plan.compile_fail fault fires
  // here) and replays it. Concurrent const calls are safe. Every non-const
  // member drops the cached plans (see params()).

  // Raw model output for a kernel (+ optional tile config). For rank-loss
  // models this is a unitless score (lower = faster); for log-target models
  // it is log(seconds). Scores the kernel as a one-item PredictBatch; throws
  // std::invalid_argument for an empty kernel or a missing tile config.
  double PredictScore(const PreparedKernel& kernel,
                      const ir::TileConfig* tile = nullptr) const;
  // Absolute runtime in seconds (applies exp() for log-target models).
  double PredictSeconds(const PreparedKernel& kernel,
                        const ir::TileConfig* tile = nullptr) const;

  // Batched prediction: one replay over the packed batch, with all dense
  // layers running as single large GEMMs. Element i of the result is
  // bit-identical to PredictScore(kernel_i, tile_i) and to row i of the
  // training forward (ForwardBatch, training off): the packed ops reduce
  // each segment independently of its batch-mates, and replay calls the
  // tape ops' kernels.
  std::vector<double> PredictBatch(const PreparedBatch& batch) const;
  // As PredictBatch, but in seconds (applies exp() for log-target models).
  std::vector<double> PredictBatchSeconds(const PreparedBatch& batch) const;

  // ---- Plan-compiled inference (src/plan) ----------------------------------
  // Records the schedule of one inference forward (ForwardBatchImpl on a
  // record-mode tape, see nn/schedule.h) and compiles it with
  // liveness-planned buffers, valid for batches of up to `max_kernels`
  // kernels and `max_total_nodes` packed nodes. The plan reads this model's
  // parameters through live pointers and holds values computed from them
  // alone as folded copies (AOT semantics: the model must outlive the plan,
  // and the plan is stale after a parameter write). Requires fitted
  // scalers; throws std::logic_error otherwise, and when the forward uses
  // an op with no replay form. `poison_dead_buffers` enables the plan_test
  // debug mode that NaN-fills retired buffers.
  std::shared_ptr<const plan::CompiledPlan> CompilePlan(
      int max_kernels, int max_total_nodes,
      bool poison_dead_buffers = false) const;
  // Replays `plan` over `batch`, bypassing the plan cache.
  std::vector<double> PredictBatchWithPlan(const plan::CompiledPlan& plan,
                                           const PreparedBatch& batch) const;
  // The cache PredictBatch scores through (its counters feed the serving
  // engine's plan statistics).
  const plan::PlanCache& plan_cache() const noexcept { return plan_cache_; }

  // Differentiable forward pass used by the trainer: returns a [B, 1]
  // tensor of scores. `tape` must outlive the returned tensor, and `batch`
  // must outlive `tape` (the tape's closures reference its adjacency
  // blocks). `training` enables dropout. Drops the cached plans: a trainer
  // writes parameters only after its step's ForwardBatch.
  nn::Tensor ForwardBatch(nn::Tape& tape, const PreparedBatch& batch,
                          bool training);

  // Initializes the output head's bias to `value` — for log-target models
  // the trainer sets this to the mean log runtime of the training set so the
  // regression starts centered instead of ~10 nats away.
  void SetOutputBias(float value);

  // ---- Parameters ----------------------------------------------------------
  // Mutable access drops the cached plans, as every non-const member does,
  // so no folded constant outlives a parameter write. A caller that keeps
  // the reference and writes through it later must not call Predict* in
  // between without calling a non-const member again (the trainers write
  // through Adam only after their step's ForwardBatch).
  nn::ParamStore& params() {
    plan_cache_.Clear();
    return *store_;
  }
  std::size_t parameter_scalars() const { return store_->scalar_count(); }

  // ---- Snapshot state (serve/snapshot.h encodes and restores it) -----------
  const nn::ParamStore& param_store() const noexcept { return *store_; }
  const feat::FeatureScaler& node_scaler() const noexcept {
    return node_scaler_;
  }
  const feat::FeatureScaler& tile_scaler() const noexcept {
    return tile_scaler_;
  }
  const feat::FeatureScaler& perf_scaler() const noexcept {
    return perf_scaler_;
  }
  // Replaces the three scalers and every parameter value (`values` in
  // param_store() order), drops the cached plans and marks the model
  // fitted. Throws std::invalid_argument, changing nothing, when a scaler's
  // width differs from the featurizer's or a value's count or shape from
  // the parameters'.
  void Restore(feat::FeatureScaler node_scaler, feat::FeatureScaler tile_scaler,
               feat::FeatureScaler perf_scaler, std::vector<nn::Matrix> values);

 private:
  // The model's one forward: ForwardBatch trains through it, and
  // CompilePlan records its schedule.
  nn::Tensor ForwardBatchImpl(nn::Tape& tape, const PreparedBatch& batch,
                              bool training,
                              std::mt19937_64& dropout_rng) const;
  // Scales a tile config's features into a float row.
  std::vector<float> ScaledTileFeatures(const ir::TileConfig& tile) const;

  ModelConfig config_;
  std::unique_ptr<nn::ParamStore> store_;
  std::mt19937_64 init_rng_;
  mutable std::mt19937_64 dropout_rng_;

  feat::FeatureScaler node_scaler_;
  feat::FeatureScaler tile_scaler_;
  feat::FeatureScaler perf_scaler_;
  bool fitted_ = false;

  // ---- Modules (built at construction from config_) -------------------------
  nn::Embedding opcode_embedding_;
  nn::Mlp f1_;
  std::vector<nn::GraphSageLayer> sage_layers_;
  std::vector<nn::GatLayer> gat_layers_;
  nn::Mlp node_final_;
  nn::Lstm reduction_lstm_;
  nn::TransformerEncoder reduction_transformer_;
  nn::Linear per_node_head_;
  nn::Linear output_head_;
  int kernel_embedding_dim_ = 0;

  // Plans PredictBatch replays: up to 8 batch-shape buckets, LRU beyond.
  mutable plan::PlanCache plan_cache_{8};
};

}  // namespace tpuperf::core
