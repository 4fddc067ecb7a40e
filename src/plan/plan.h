// Plan-compiled inference: a (ModelConfig, batch-shape-capacity) pair is
// compiled ONCE into a flattened instruction schedule plus a static memory
// plan, then replayed per request with zero per-op dispatch, zero tape-node
// bookkeeping and zero heap allocations.
//
// The split mirrors AOT tensor compilers (XLA tfcompile): the planner
// (plan/planner.cpp, LearnedCostModel::CompilePlan) traces the exact
// ForwardBatchImpl op sequence for the model's configuration and emits one
// Instr per fused kernel call — GEMMs with their bias/ReLU epilogues folded
// in, block-diagonal aggregations, segment reductions, the LSTM recurrence as
// a single instruction. A liveness pass then assigns every intermediate a
// physical buffer in a small recycled pool (buffers whose last reader has
// retired are reused), so a replay touches a fixed slab of memory.
//
// Determinism contract: CompiledPlan::Run produces bit-identical outputs to
// the tape path (LearnedCostModel::PredictBatch / PredictScore) at any
// core::ThreadPool width — every instruction bottoms out in the same
// nn/op_kernels.h entry points the tape ops call, in the same order, with
// the same operand values. The only compile-time materialization is the
// LSTM's fused gate weight (an exact concatenation-of-copies, as
// Lstm::ForwardBatched builds per call); like every weight pointer captured
// in the schedule, it snapshots AOT semantics — recompile the plan after
// parameter updates.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "nn/gnn.h"
#include "nn/matrix.h"

namespace tpuperf::core {
struct PreparedBatch;
}

namespace tpuperf::plan {

// Symbolic row count of a logical buffer: resolved per Run against the
// request's (batch, total-node) shape; capacities are fixed at compile time.
enum class Rows { kBatch, kNodes };

enum class OpKind {
  kGatherEmbed,        // dst[:, col_off:+w.cols] = w.row(opcode_ids[i])
  kCopyInput,          // dst[:, col_off:+width] = input matrix (input_kind)
  kBroadcastSegments,  // per-kernel input rows broadcast to node rows
  kCopyCols,           // dst[:, col_off:+a.cols] = buffer a (concat part)
  kGemm,               // dst = a @ w [+ w2 row-broadcast] [then ReLU]
  kBlockAgg,           // dst = blockdiag(adjacency blocks) @ a
  kRowL2Norm,          // dst = row-L2-normalized a (eps in scale)
  kLayerNorm,          // dst = layernorm(a) * w + w2 (eps in scale)
  kAdd,                // dst = a + b
  kSegmentSum,         // dst[b] = sum over segment b of a
  kSegmentMean,        // dst[b] = mean over segment b of a
  kSegmentMax,         // dst[b] = colwise max over segment b of a
  kSelfAttention,      // dst = blockdiag softmax(a b^T * scale) @ c
  kGatAttention,       // dst = blockdiag GAT attention (s=a, d=b, wh=c)
  kLstmReduce,         // dst = final LSTM hidden states over xw = buffer a
};

// Compile-time state of the LSTM reduction: the exact gate-weight
// concatenation Lstm::ForwardBatched builds on the tape per call
// ([in+hidden, 4h] split into input-side and recurrent blocks, plus the
// fused [1, 4h] bias), materialized once. The input-side block feeds a
// plain kGemm; kLstmReduce runs nn::LstmSequenceForward over its output.
struct LstmPlanData {
  nn::Matrix w_x;    // [in_features, 4*hidden]
  nn::Matrix w_h;    // [hidden, 4*hidden]
  nn::Matrix b_all;  // [1, 4*hidden]
};

// One schedule entry. `dst`/`a`/`b`/`c` are logical buffer ids; `w`/`w2`
// point at live Parameter value matrices in the model's ParamStore (the
// model must outlive the plan).
struct Instr {
  OpKind kind = OpKind::kAdd;
  int dst = -1, a = -1, b = -1, c = -1;
  int col_off = 0;               // column offset for the copy/concat kinds
  const nn::Matrix* w = nullptr;
  const nn::Matrix* w2 = nullptr;
  float scale = 0.0f;            // eps / attention scale / LeakyReLU alpha
  int activation = 0;            // kGemm epilogue: 0 none, 1 ReLU
  int block_kind = 0;            // kBlockAgg: 0 in_agg, 1 out_agg, 2 sym_norm
  int input_kind = 0;            // 0 node features, 1 static perf, 2 tile
  bool first_write = false;      // set by the memory planner
  bool zero_dst = false;         // accumulate kernel: zero dst on define
  // kLstmReduce's weights; the xw kGemm shares it to keep `w` alive.
  std::shared_ptr<const LstmPlanData> lstm;
};

// The per-request view a compiled plan replays over. Non-owning: everything
// must outlive the Run call. FromBatch adapts a PreparedBatch in place.
struct PlanInput {
  std::span<const int> opcode_ids;                       // [total_nodes]
  const nn::Matrix* node_features = nullptr;             // [N, 35]
  const nn::Matrix* static_perf = nullptr;               // [B, 4] (if used)
  const nn::Matrix* tile_features = nullptr;             // [B, kTile] (if used)
  std::span<const nn::GraphStructure* const> blocks;     // B adjacency blocks
  std::span<const int> offsets;                          // B+1 entries

  static PlanInput FromBatch(const core::PreparedBatch& batch);
};

// An immutable compiled schedule + memory plan. Thread-safe: concurrent
// Run calls each borrow a pooled ExecutionContext (the per-run mutable
// buffer slab) under a mutex; the schedule itself is never mutated.
class CompiledPlan {
 public:
  struct Options {
    // Debug: fill buffers with quiet NaN when their last reader retires (and
    // the whole slab before replay) so any read of a dead buffer poisons the
    // output. Used by plan_test to validate the liveness plan.
    bool poison_dead_buffers = false;
  };

  // Everything the planner emits; the constructor runs liveness analysis and
  // physical-buffer assignment over it.
  struct Spec {
    std::vector<Instr> instrs;
    std::vector<Rows> buffer_rows;        // per logical buffer
    std::vector<int> buffer_cols;         // per logical buffer
    int output_buffer = -1;               // final [B, 1] scores
    int batch_capacity = 0;
    int node_capacity = 0;
    int node_feature_cols = 0;
    int static_perf_cols = 0;             // 0 when the model ignores them
    int tile_cols = 0;                    // 0 when the model has no tiles
    int opcode_vocab = 0;
  };

  CompiledPlan(Spec spec, const Options& options);
  ~CompiledPlan();

  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  // Replays the schedule over `input`, writing one score per kernel into
  // `out` (size must equal the batch size). Throws std::invalid_argument on
  // shape/capacity violations. Performs zero heap allocations after the
  // first (warm-up) call per concurrent caller at pool width 1.
  void Run(const PlanInput& input, std::span<double> out) const;

  int batch_capacity() const noexcept { return spec_.batch_capacity; }
  int node_capacity() const noexcept { return spec_.node_capacity; }
  int num_instructions() const noexcept {
    return static_cast<int>(spec_.instrs.size());
  }
  int num_buffers() const noexcept {
    return static_cast<int>(spec_.buffer_rows.size());
  }
  int num_physical_buffers() const noexcept {
    return static_cast<int>(physical_capacity_.size());
  }
  // Total bytes of the replay slab (sum of physical buffer capacities).
  std::size_t slab_bytes() const noexcept { return slab_bytes_; }

 private:
  struct ExecutionContext;

  std::unique_ptr<ExecutionContext> AcquireContext() const;
  void ReleaseContext(std::unique_ptr<ExecutionContext> ctx) const;
  void ValidateInput(const PlanInput& input, int batch, int nodes) const;
  void Execute(ExecutionContext& ctx, const PlanInput& input, int batch,
               int nodes) const;

  Spec spec_;
  Options options_;
  std::vector<int> physical_of_;               // logical -> physical buffer
  std::vector<std::size_t> physical_capacity_; // elements per physical buffer
  std::vector<int> last_use_;                  // per logical buffer
  std::size_t slab_bytes_ = 0;
  bool needs_static_perf_ = false;
  bool needs_tile_ = false;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<ExecutionContext>> context_pool_;
};

}  // namespace tpuperf::plan
