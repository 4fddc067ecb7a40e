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
// the training forward (LearnedCostModel::ForwardBatch with training off)
// — every instruction bottoms out in the same
// nn/op_kernels.h entry points the tape ops call, in the same order, with
// the same operand values. Parameters are read through live pointers;
// values computed from parameters alone (the LSTM's fused gate weight) were
// folded at compile time. Both are AOT semantics: a plan is stale once a
// parameter is written. LearnedCostModel scores every inference through
// its own PlanCache and drops the cached plans on every non-const call, so
// a folded constant never outlives a parameter write.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
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
  // first (warm-up) call per concurrent caller.
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

// An LRU cache of compiled plans keyed by batch-shape bucket. Shapes are
// bucketed to the next power of two in both dimensions (batch size and
// packed node count). A plan compiled for capacity (2^a, 2^b) replays any
// batch at or under that capacity, so a lookup is served by the smallest
// cached plan covering the shape, whichever bucket it was compiled for.
// Thread-safe.
class PlanCache {
 public:
  // Monotonic since construction; Clear() keeps them.
  struct Counters {
    std::uint64_t hits = 0;      // lookups served by a cached plan
    std::uint64_t misses = 0;    // lookups no cached plan covered
    std::uint64_t compiles = 0;  // plans inserted (compiled and cached)
  };

  explicit PlanCache(std::size_t capacity);

  // The bucket (plan capacity) covering a concrete batch shape.
  static std::pair<int, int> Bucket(int num_kernels, int total_nodes);

  // The smallest cached plan (by node, then batch capacity) covering
  // (num_kernels, total_nodes), or null. A hit refreshes the entry's LRU
  // position.
  std::shared_ptr<const CompiledPlan> Lookup(int num_kernels,
                                             int total_nodes);
  // Inserts a plan under Bucket(num_kernels, total_nodes), evicting the
  // least-recently-used entry when the cache is full.
  void Insert(int num_kernels, int total_nodes,
              std::shared_ptr<const CompiledPlan> plan);
  // Drops every cached plan.
  void Clear();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  Counters counters() const;

 private:
  struct Entry {
    std::pair<int, int> bucket;
    std::shared_ptr<const CompiledPlan> plan;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recently used
  Counters counters_;
};

}  // namespace tpuperf::plan
