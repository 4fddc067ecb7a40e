// Plan-compiled inference: a (ModelConfig, batch-shape-capacity) pair is
// compiled ONCE into a flattened instruction schedule plus a static memory
// plan, then replayed per request with zero per-op dispatch, zero tape-node
// bookkeeping and zero heap allocations.
//
// The split mirrors AOT tensor compilers (XLA tfcompile). The schedule is
// not written by hand: LearnedCostModel::CompilePlan runs the model's one
// tape forward (ForwardBatchImpl) in record mode (nn/schedule.h), where each
// op appends the instruction that replays it. CompiledPlan then rewrites the
// recording generically — a bias add or ReLU folds into the GEMM whose
// output it alone reads, and a concatenated part is written straight into
// its concat when the concat alone reads it — and a liveness pass assigns
// every intermediate a physical buffer in a small recycled pool (buffers
// whose last reader has retired are reused), so a replay touches a fixed
// slab of memory.
//
// Determinism contract: CompiledPlan::Run produces bit-identical outputs to
// the tape path (LearnedCostModel::PredictBatch / PredictScore) at any
// core::ThreadPool width — every instruction bottoms out in the same
// nn/op_kernels.h entry points the tape ops call, in the same order, with
// the same operand values. Parameters are read through live pointers;
// values computed from parameters alone (the LSTM's fused gate weight) were
// folded at compile time. Both are AOT semantics: recompile the plan after
// parameter updates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "nn/gnn.h"
#include "nn/matrix.h"
#include "nn/schedule.h"

namespace tpuperf::core {
struct PreparedBatch;
}

namespace tpuperf::plan {

// The per-request view a compiled plan replays over. Non-owning: everything
// must outlive the Run call. FromBatch adapts a PreparedBatch in place.
struct PlanInput {
  std::span<const int> opcode_ids;                    // [total_nodes]
  // By nn::InputKind: node features [N, 35], static perf [B, 4], tile
  // features [B, kTile] (null when the model has none).
  std::array<const nn::Matrix*, nn::kNumInputKinds> matrices{};
  std::span<const nn::GraphStructure* const> blocks;  // B adjacency blocks
  std::span<const int> offsets;                       // B+1 entries

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

  // Rewrites the recorded `schedule` (see the file comment), then runs
  // liveness analysis and physical-buffer assignment for batches of up to
  // `batch_capacity` kernels and `node_capacity` nodes.
  CompiledPlan(nn::Schedule schedule, int batch_capacity, int node_capacity,
               const Options& options);
  ~CompiledPlan();

  CompiledPlan(const CompiledPlan&) = delete;
  CompiledPlan& operator=(const CompiledPlan&) = delete;

  // Replays the schedule over `input`, writing one score per kernel into
  // `out` (size must equal the batch size). Throws std::invalid_argument on
  // shape/capacity violations. Performs zero heap allocations after the
  // first (warm-up) call per concurrent caller at pool width 1.
  void Run(const PlanInput& input, std::span<double> out) const;

  int batch_capacity() const noexcept { return batch_capacity_; }
  int node_capacity() const noexcept { return node_capacity_; }
  int num_instructions() const noexcept {
    return static_cast<int>(schedule_.instrs.size());
  }
  int num_buffers() const noexcept {
    return static_cast<int>(schedule_.buffer_rows.size());
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

  void Rewrite();

  nn::Schedule schedule_;
  int batch_capacity_ = 0;
  int node_capacity_ = 0;
  Options options_;
  std::vector<int> physical_of_;               // logical -> physical buffer
  std::vector<std::size_t> physical_capacity_; // elements per physical buffer
  std::vector<int> last_use_;                  // per logical buffer
  std::size_t slab_bytes_ = 0;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<ExecutionContext>> context_pool_;
};

}  // namespace tpuperf::plan
