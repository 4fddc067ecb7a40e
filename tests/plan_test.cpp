// Tests for plan-compiled inference (src/plan): bit-exact parity between
// PredictBatch (which replays plans from the model's PlanCache), explicitly
// compiled plans and the training forward (ForwardBatch, training off, on a
// gradient tape) across the full GNN × reduction grid, allocation-free
// replay after warm-up, the NaN-poison validation of the
// liveness plan, the shape of the recorded schedule (its fused instruction
// counts and memory plan), record mode's refusal of what it cannot replay,
// PlanCache bucketing, covering lookup, LRU eviction and counters, and the
// service's compile-once-replay-many path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "core/cost_model.h"
#include "ir/builder.h"
#include "nn/gnn.h"
#include "nn/ops.h"
#include "nn/schedule.h"
#include "plan/plan.h"
#include "serve/prediction_service.h"

// ---- Global allocation counter ---------------------------------------------
// Replaces the global allocator for this test binary so ReplayIsAllocationFree
// can assert that a warmed-up CompiledPlan::Run performs zero heap
// allocations. Counting is armed only around the measured Run calls.

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tpuperf {
namespace {

using core::BatchItem;
using core::GnnKind;
using core::LearnedCostModel;
using core::ModelConfig;
using core::PreparedBatch;
using core::PreparedKernel;
using core::ReductionKind;

// A random elementwise kernel with at least `target_nodes` nodes (the same
// generator batch_test and serve_test use, so batches mix segment lengths).
ir::Graph RandomKernel(std::uint64_t seed, int target_nodes) {
  std::mt19937_64 rng(seed);
  ir::GraphBuilder b;
  std::vector<ir::NodeId> pool;
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  std::uniform_int_distribution<int> op_pick(0, 3);
  while (static_cast<int>(pool.size()) < target_nodes) {
    std::uniform_int_distribution<size_t> node_pick(0, pool.size() - 1);
    const ir::NodeId x = pool[node_pick(rng)];
    switch (op_pick(rng)) {
      case 0:
        pool.push_back(b.Tanh(x));
        break;
      case 1:
        pool.push_back(b.Relu(x));
        break;
      case 2:
        pool.push_back(b.Unary(ir::OpCode::kExp, x));
        break;
      default:
        pool.push_back(b.Binary(ir::OpCode::kAdd, x, pool[node_pick(rng)]));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

ModelConfig SmallConfig() {
  ModelConfig c = ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  return c;
}

// Kernels, tiles, and a fitted model for a given architecture point.
struct Fixture {
  std::vector<ir::Graph> kernels;
  std::vector<ir::TileConfig> tiles;
  std::unique_ptr<LearnedCostModel> model;
  std::vector<PreparedKernel> prepared;

  explicit Fixture(ModelConfig config, int num_kernels = 6) {
    for (int k = 0; k < num_kernels; ++k) {
      kernels.push_back(RandomKernel(
          1000 + static_cast<std::uint64_t>(k) * 17, 5 + 7 * k));
      tiles.push_back(ir::TileConfig{
          {static_cast<std::int64_t>(1 << (k % 5)), 8}});
    }
    model = std::make_unique<LearnedCostModel>(config);
    for (const auto& kernel : kernels) model->FitNodeScaler(kernel);
    for (const auto& tile : tiles) model->FitTileScaler(tile);
    model->FinishFitting();
    for (const auto& kernel : kernels) {
      prepared.push_back(model->Prepare(kernel));
    }
  }

  PreparedBatch MakeBatch() const {
    std::vector<BatchItem> items;
    for (size_t i = 0; i < prepared.size(); ++i) {
      items.push_back({&prepared[i], &tiles[i]});
    }
    return model->PrepareBatch(items);
  }

  // Kernel i alone, the one-item batch PredictScore packs.
  PreparedBatch MakeSingle(size_t i) const {
    const BatchItem item{&prepared[i], &tiles[i]};
    return model->PrepareBatch({&item, 1});
  }

  // The training forward: ForwardBatch with training off on a gradient
  // tape, the reference every inference path must equal bit for bit.
  std::vector<double> TrainingForward(const PreparedBatch& batch) const {
    nn::Tape tape;
    const nn::Tensor out = model->ForwardBatch(tape, batch, /*training=*/false);
    std::vector<double> scores(static_cast<size_t>(out.rows()));
    for (int b = 0; b < out.rows(); ++b) {
      scores[static_cast<size_t>(b)] = out.value().at(b, 0);
    }
    return scores;
  }
};

// Replays `plan` over `batch` directly, bypassing the model's cache.
std::vector<double> ReplayPlan(const plan::CompiledPlan& plan,
                               const PreparedBatch& batch) {
  std::vector<double> out(static_cast<size_t>(batch.num_kernels()));
  plan.Run(plan::PlanInput::FromBatch(batch), out);
  return out;
}

// ---- Parity ----------------------------------------------------------------

class PlanParityTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, ReductionKind>> {};

// Every inference must be EXACTLY the training forward's output — batched
// PredictBatch, an explicitly compiled plan, and single-kernel PredictScore
// against the one-item training forward.
TEST_P(PlanParityTest, BitExactVsTape) {
  const auto [gnn, reduction] = GetParam();
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  Fixture fx(config);

  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();

  const std::vector<double> tape = fx.TrainingForward(batch);
  const std::vector<double> predicted = fx.model->PredictBatch(batch);
  const std::vector<double> planned = ReplayPlan(*plan, batch);
  ASSERT_EQ(predicted.size(), tape.size());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_TRUE(std::isfinite(predicted[i]));
    EXPECT_EQ(predicted[i], tape[i])
        << "kernel " << i << " (" << ToString(gnn) << " + "
        << ToString(reduction) << ")";
    EXPECT_EQ(planned[i], tape[i]) << "compiled plan, kernel " << i;
  }
  for (size_t i = 0; i < fx.prepared.size(); ++i) {
    const double single = fx.TrainingForward(fx.MakeSingle(i)).front();
    EXPECT_EQ(fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]), single)
        << "single kernel " << i;
    EXPECT_EQ(ReplayPlan(*plan, fx.MakeSingle(i)).front(), single)
        << "compiled plan, single kernel " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlanParityTest,
    ::testing::Combine(
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

// The undirected (symmetric-aggregation) GraphSAGE ablation compiles to the
// sym_norm block aggregation and must also be bit-exact.
TEST(PlanParity, UndirectedGraphSage) {
  ModelConfig config = SmallConfig();
  config.directed_edges = false;
  Fixture fx(config);

  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = fx.TrainingForward(batch);
  const std::vector<double> predicted = fx.model->PredictBatch(batch);
  ASSERT_EQ(predicted.size(), tape.size());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(predicted[i], tape[i]) << "kernel " << i;
  }
}

// An untrained model has zero biases and unit layer-norm gains, so a plan
// that dropped a bias or a gain would still match it: perturb every
// parameter and compare again, over the whole GNN × reduction grid.
TEST(PlanParity, PerturbedParameters) {
  for (const GnnKind gnn :
       {GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat}) {
    for (const ReductionKind reduction :
         {ReductionKind::kPerNode, ReductionKind::kColumnWise,
          ReductionKind::kLstm, ReductionKind::kTransformer}) {
      ModelConfig config = SmallConfig();
      config.gnn = gnn;
      config.reduction = reduction;
      Fixture fx(config);
      std::mt19937_64 rng(7);
      std::normal_distribution<float> noise(0.0f, 0.1f);
      for (nn::Parameter* p : fx.model->params().params()) {
        for (float& v : p->value.flat()) v += noise(rng);
      }
      const PreparedBatch batch = fx.MakeBatch();
      const std::vector<double> tape = fx.TrainingForward(batch);
      const std::vector<double> predicted = fx.model->PredictBatch(batch);
      for (size_t i = 0; i < tape.size(); ++i) {
        EXPECT_EQ(predicted[i], tape[i])
            << ToString(gnn) << " + " << ToString(reduction) << " kernel "
            << i;
      }
    }
  }
}

// Kernel-embedding feature placement (option 2) routes the per-kernel rows
// through the post-reduction concat instead of the node broadcast.
TEST(PlanParity, KernelEmbeddingPlacement) {
  ModelConfig config = SmallConfig();
  config.static_perf_placement = core::FeaturePlacement::kKernelEmbedding;
  config.tile_placement = core::FeaturePlacement::kKernelEmbedding;
  Fixture fx(config);

  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = fx.TrainingForward(batch);
  const std::vector<double> predicted = fx.model->PredictBatch(batch);
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_EQ(predicted[i], tape[i]) << "kernel " << i;
  }
}

// A plan replays any batch at or under its capacity: sub-batches and single
// kernels through the same plan still match the training forward exactly.
TEST(PlanParity, SmallerBatchesThroughOnePlan) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  for (size_t take = 1; take <= fx.prepared.size(); take += 2) {
    std::vector<BatchItem> items;
    for (size_t i = 0; i < take; ++i) {
      items.push_back({&fx.prepared[i], &fx.tiles[i]});
    }
    const PreparedBatch batch = fx.model->PrepareBatch(items);
    const std::vector<double> tape = fx.TrainingForward(batch);
    const std::vector<double> planned = ReplayPlan(*plan, batch);
    for (size_t i = 0; i < take; ++i) {
      EXPECT_EQ(planned[i], tape[i]) << "take " << take << " kernel " << i;
    }
  }
}

// ---- Liveness validation ---------------------------------------------------

// In poison mode every retired buffer is filled with NaN the moment its last
// scheduled reader has run. If the memory plan ever let a live value share a
// physical buffer with a dead one — or an instruction read past its
// operands' lifetimes — the NaN would propagate to the output. Equal, finite
// scores prove no instruction reads a dead buffer.
TEST(PlanLiveness, PoisonedDeadBuffersNeverRead) {
  for (const ReductionKind reduction :
       {ReductionKind::kPerNode, ReductionKind::kColumnWise,
        ReductionKind::kLstm, ReductionKind::kTransformer}) {
    ModelConfig config = SmallConfig();
    config.reduction = reduction;
    Fixture fx(config);

    const auto poisoned =
        fx.model->CompilePlan(8, 512, /*poison_dead_buffers=*/true);
    const PreparedBatch batch = fx.MakeBatch();
    const std::vector<double> tape = fx.TrainingForward(batch);
    const std::vector<double> planned = ReplayPlan(*poisoned, batch);
    for (size_t i = 0; i < tape.size(); ++i) {
      EXPECT_TRUE(std::isfinite(planned[i]));
      EXPECT_EQ(planned[i], tape[i])
          << ToString(reduction) << " kernel " << i;
    }
  }
}

// The memory plan must actually reuse buffers: the physical pool should be
// strictly smaller than the logical buffer count for a multi-layer model.
TEST(PlanLiveness, PhysicalPoolSmallerThanLogical) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  EXPECT_GT(plan->num_instructions(), 0);
  EXPECT_GT(plan->num_buffers(), 0);
  EXPECT_LT(plan->num_physical_buffers(), plan->num_buffers());
  EXPECT_GT(plan->slab_bytes(), 0u);
}

// ---- Allocation-free replay ------------------------------------------------

// After warm-up, a Run must perform ZERO heap allocations: the slab,
// the execution context, and every kernel scratch are preallocated.
TEST(PlanReplay, ReplayIsAllocationFree) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const plan::PlanInput input = plan::PlanInput::FromBatch(batch);
  std::vector<double> out(static_cast<size_t>(batch.num_kernels()));

  plan->Run(input, out);  // warm-up: context + thread-local scratch
  plan->Run(input, out);

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  plan->Run(input, out);
  plan->Run(input, out);
  g_count_allocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
  const std::vector<double> tape = fx.TrainingForward(batch);
  for (size_t i = 0; i < tape.size(); ++i) EXPECT_EQ(out[i], tape[i]);
}

// Concurrent Run calls on ONE shared plan (each borrowing a pooled context)
// and concurrent PredictScore calls through the model's plan cache (which
// compile, insert and look up concurrently) must all reproduce the training
// forward's scores. Runs under TSan in CI.
TEST(PlanReplay, ConcurrentReplayOfSharedPlan) {
  Fixture fx(SmallConfig());
  const auto plan = fx.model->CompilePlan(8, 512);
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> tape = fx.TrainingForward(batch);
  std::vector<double> single(fx.prepared.size());
  for (size_t i = 0; i < fx.prepared.size(); ++i) {
    single[i] = fx.TrainingForward(fx.MakeSingle(i)).front();
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kIters; ++r) {
        if ((t + r) % 2 == 0) {
          const std::vector<double> got = ReplayPlan(*plan, batch);
          for (size_t i = 0; i < tape.size(); ++i) {
            if (got[i] != tape[i]) mismatches.fetch_add(1);
          }
        } else {
          const size_t i = static_cast<size_t>(t + r) % fx.prepared.size();
          if (fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]) !=
              single[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---- Recorded schedule -----------------------------------------------------

// The recorded plan must keep the fused schedule: each bound is the fully
// fused plan's count for the same model at capacity (8, 512), so a rewrite
// that stops firing fails here instead of slowing replay silently.
TEST(PlanShape, ServedModelKeepsFusedPlan) {
  Fixture fx(ModelConfig::TileTaskDefault());
  const auto plan = fx.model->CompilePlan(8, 512);
  EXPECT_LE(plan->num_instructions(), 37);
  EXPECT_LE(plan->num_buffers(), 28);
  EXPECT_LE(plan->num_physical_buffers(), 4);
  EXPECT_LE(plan->slab_bytes(), 720896u);
}

TEST(PlanShape, GridKeepsFusedInstructionCounts) {
  struct Bound {
    GnnKind gnn;
    int per_node, column_wise, lstm, transformer;
  };
  for (const Bound& bound : {Bound{GnnKind::kNone, 10, 12, 10, 36},
                             Bound{GnnKind::kGraphSage, 28, 30, 28, 54},
                             Bound{GnnKind::kGat, 32, 34, 32, 58}}) {
    for (const auto& [reduction, limit] :
         {std::pair{ReductionKind::kPerNode, bound.per_node},
          std::pair{ReductionKind::kColumnWise, bound.column_wise},
          std::pair{ReductionKind::kLstm, bound.lstm},
          std::pair{ReductionKind::kTransformer, bound.transformer}}) {
      ModelConfig config = SmallConfig();
      config.gnn = bound.gnn;
      config.reduction = reduction;
      Fixture fx(config, 1);
      EXPECT_LE(fx.model->CompilePlan(8, 512)->num_instructions(), limit)
          << ToString(bound.gnn) << " + " << ToString(reduction);
    }
  }
}

// A recording tape over a one-kernel batch of two nodes, the shape
// CompilePlan records over.
struct Recording {
  nn::GraphStructure graph = nn::BuildGraphStructure({{}, {0}});
  nn::BatchedGraphStructure structure;
  std::vector<int> opcode_ids = {0, 0};
  std::unique_ptr<nn::ScheduleRecorder> recorder;
  std::unique_ptr<nn::Tape> tape;

  Recording() {
    const nn::GraphStructure* const blocks[] = {&graph};
    structure = nn::PackGraphStructures(blocks);
    recorder = std::make_unique<nn::ScheduleRecorder>(structure, opcode_ids);
    tape = std::make_unique<nn::Tape>(/*arena=*/nullptr, recorder.get());
  }
  nn::Tensor Input() {
    return tape->InputLeaf(nn::Matrix(2, 2), nn::InputKind::kNodeFeatures);
  }
};

// Reaching an op that has no replay form, or a GEMM whose right operand is
// batch data, fails the recording with an error naming the op.
TEST(PlanRecord, RefusesWhatItCannotReplay) {
  const auto expect_refused = [](const std::string& op, const auto& build) {
    Recording rec;
    try {
      build(*rec.tape, rec.Input());
      ADD_FAILURE() << op << " was recorded";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find(op), std::string::npos)
          << e.what();
    }
  };
  expect_refused("SliceRowsOp", [](nn::Tape& t, nn::Tensor x) {
    nn::SliceRowsOp(t, x, 0, 1);
  });
  expect_refused("SigmoidOp",
                 [](nn::Tape& t, nn::Tensor x) { nn::SigmoidOp(t, x); });
  expect_refused("DropoutOp", [](nn::Tape& t, nn::Tensor x) {
    std::mt19937_64 rng(1);
    nn::DropoutOp(t, x, 0.5f, rng);
  });
  expect_refused("TanhOp",
                 [](nn::Tape& t, nn::Tensor x) { nn::TanhOp(t, x); });
  expect_refused("MatMulOp", [](nn::Tape& t, nn::Tensor x) {
    nn::MatMulOp(t, x, nn::ReluOp(t, x));
  });
}

// Nodes computed from parameters alone fold into constants the schedule
// owns, whatever op computed them; parameters stay live pointers.
TEST(PlanRecord, FoldsParameterOnlyNodes) {
  std::mt19937_64 rng(3);
  nn::ParamStore store;
  nn::Parameter* w =
      store.Create("w", 2, 2, nn::Init::kXavierUniform, rng);
  Recording rec;
  nn::Tape& t = *rec.tape;
  nn::Tensor x = rec.Input();
  nn::Tensor folded = nn::SigmoidOp(t, t.ParamLeaf(*w));  // [2, 2]
  nn::Tensor y = nn::MatMulOp(t, nn::MatMulOp(t, x, folded), t.ParamLeaf(*w));
  const nn::Schedule schedule = rec.recorder->Finish(y.node());
  ASSERT_EQ(schedule.instrs.size(), 3u);  // the input copy and two GEMMs
  ASSERT_EQ(schedule.constants.size(), 1u);
  EXPECT_EQ(schedule.instrs[1].w, schedule.constants[0].get());
  EXPECT_TRUE(schedule.constants[0]->same_shape(folded.value()));
  EXPECT_EQ(schedule.instrs[2].w, &w->value);
}

// ---- Compile-time validation -----------------------------------------------

TEST(PlanCompile, RejectsBadArguments) {
  Fixture fx(SmallConfig());
  EXPECT_THROW(fx.model->CompilePlan(0, 512), std::invalid_argument);
  EXPECT_THROW(fx.model->CompilePlan(8, 4), std::invalid_argument);

  LearnedCostModel unfitted(SmallConfig());
  EXPECT_THROW(unfitted.CompilePlan(8, 512), std::logic_error);
}

TEST(PlanCompile, RunRejectsOverCapacityBatches) {
  Fixture fx(SmallConfig());
  // Capacity of 2 kernels / 32 nodes: the 6-kernel batch must be refused.
  const auto plan = fx.model->CompilePlan(2, 32);
  const PreparedBatch batch = fx.MakeBatch();
  EXPECT_THROW(ReplayPlan(*plan, batch), std::invalid_argument);
}

// ---- PlanCache -------------------------------------------------------------

TEST(PlanCacheTest, BucketsRoundUpToPowersOfTwo) {
  EXPECT_EQ(plan::PlanCache::Bucket(1, 1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(plan::PlanCache::Bucket(3, 100), (std::pair<int, int>{4, 128}));
  EXPECT_EQ(plan::PlanCache::Bucket(4, 128), (std::pair<int, int>{4, 128}));
  EXPECT_EQ(plan::PlanCache::Bucket(5, 129), (std::pair<int, int>{8, 256}));
  // The node capacity is raised to at least the batch capacity so the
  // compiled plan is always valid.
  EXPECT_EQ(plan::PlanCache::Bucket(8, 3), (std::pair<int, int>{8, 8}));
}

TEST(PlanCacheTest, CoveringLookupAndLruEviction) {
  Fixture fx(SmallConfig());
  const auto small = fx.model->CompilePlan(4, 128);
  const auto mid = fx.model->CompilePlan(8, 256);
  const auto large = fx.model->CompilePlan(16, 512);

  plan::PlanCache cache(2);
  EXPECT_EQ(cache.Lookup(3, 100), nullptr);
  cache.Insert(3, 100, small);  // bucket (4, 128)
  EXPECT_EQ(cache.size(), 1u);
  // Every shape within the plan's capacity hits it, smaller buckets
  // included; a shape beyond it in either dimension misses.
  EXPECT_EQ(cache.Lookup(4, 128).get(), small.get());
  EXPECT_EQ(cache.Lookup(3, 65).get(), small.get());
  EXPECT_EQ(cache.Lookup(1, 1).get(), small.get());
  EXPECT_EQ(cache.Lookup(5, 100), nullptr);
  EXPECT_EQ(cache.Lookup(3, 300), nullptr);

  cache.Insert(8, 256, mid);  // cache full
  // The smallest covering plan wins; each hit refreshes its entry.
  EXPECT_EQ(cache.Lookup(2, 65).get(), small.get());
  EXPECT_EQ(cache.Lookup(5, 100).get(), mid.get());
  EXPECT_EQ(cache.Lookup(2, 65).get(), small.get());  // (8, 256) is now LRU
  cache.Insert(16, 512, large);                       // evicts (8, 256)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(5, 100).get(), large.get());
  EXPECT_EQ(cache.Lookup(3, 100).get(), small.get());
  EXPECT_EQ(cache.Lookup(16, 512).get(), large.get());
  EXPECT_EQ(cache.Lookup(17, 512), nullptr);

  // Clear drops the plans and keeps the counters.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  const plan::PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 9u);
  EXPECT_EQ(counters.misses, 5u);
  EXPECT_EQ(counters.compiles, 3u);
}

// PredictBatch compiles one plan per batch-shape bucket into the model's
// cache and replays it for every shape it covers; a write drops the plans.
TEST(PlanCacheTest, ModelCompilesOncePerBucket) {
  Fixture fx(SmallConfig());
  const PreparedBatch batch = fx.MakeBatch();
  const std::vector<double> first = fx.model->PredictBatch(batch);
  EXPECT_EQ(fx.model->PredictBatch(batch), first);
  // A one-kernel batch is covered by the full batch's plan.
  EXPECT_EQ(fx.model->PredictScore(fx.prepared[0], &fx.tiles[0]), first[0]);
  const plan::PlanCache& cache = fx.model->plan_cache();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().compiles, 1u);
  EXPECT_EQ(cache.counters().hits, 2u);

  fx.model->SetOutputBias(0.5f);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().compiles, 1u);
}

// ---- Service integration ---------------------------------------------------

// Identical flush compositions must compile ONE plan and replay it for every
// later batch, with results still exactly PredictScore's.
TEST(PlanService, CompileOnceReplayMany) {
  Fixture fx(SmallConfig());
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]);
  }

  serve::ServiceConfig config;
  config.max_batch = static_cast<int>(fx.kernels.size());
  config.deadline_us = 10000000;  // only the size trigger flushes
  config.num_threads = 1;
  auto served_model = std::make_unique<LearnedCostModel>(SmallConfig());
  for (const auto& kernel : fx.kernels) served_model->FitNodeScaler(kernel);
  for (const auto& tile : fx.tiles) served_model->FitTileScaler(tile);
  served_model->FinishFitting();
  serve::PredictionService service(std::move(served_model), config);

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<serve::PredictResult>> futures;
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
    }
    // Wait out the round so every flush has the same composition (and hence
    // the same plan bucket).
    for (size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get().value, direct[i]) << "round " << round;
    }
  }

  service.Shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, static_cast<std::uint64_t>(kRounds - 1));
}

// The plan compiled for a full batch also serves a later, smaller batch:
// no second compile, and the scores stay exactly PredictScore's.
TEST(PlanService, SmallerBatchReusesCachedLargerPlan) {
  Fixture fx(SmallConfig(), 4);
  std::vector<double> direct(fx.kernels.size());
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    direct[i] = fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]);
  }

  serve::ServiceConfig config;
  config.max_batch = static_cast<int>(fx.kernels.size());
  config.deadline_us = 50000;
  config.num_threads = 1;
  auto served_model = std::make_unique<LearnedCostModel>(SmallConfig());
  for (const auto& kernel : fx.kernels) served_model->FitNodeScaler(kernel);
  for (const auto& tile : fx.tiles) served_model->FitTileScaler(tile);
  served_model->FinishFitting();
  serve::PredictionService service(std::move(served_model), config);

  // A full batch flushes on size and compiles the one plan.
  std::vector<std::future<serve::PredictResult>> futures;
  for (size_t i = 0; i < fx.kernels.size(); ++i) {
    futures.push_back(service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().value, direct[i]) << "kernel " << i;
  }
  // A lone request flushes on the deadline, as a batch of one.
  EXPECT_EQ(service.PredictAsync(fx.kernels[1], &fx.tiles[1]).get().value,
            direct[1]);

  service.Shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.plan_compiles, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 1u);
}

}  // namespace
}  // namespace tpuperf
