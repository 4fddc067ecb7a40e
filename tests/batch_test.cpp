// Tests for the batched inference engine: PredictBatch parity with N
// sequential PredictScore calls across the architecture grid, batched LSTM
// reduction parity, batched training gradients, and the PreparedCache
// fingerprint-collision / reuse behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <algorithm>

#include "core/cost_model.h"
#include "core/thread_pool.h"
#include "core/trainer.h"
#include "ir/builder.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/rnn.h"

namespace tpuperf::core {
namespace {

// A random elementwise/dot kernel with at least `target_nodes` nodes.
// Different seeds give different sizes and wiring, so packed batches mix
// segment lengths.
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

class BatchParityTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, ReductionKind>> {};

// PredictBatch over a mixed-size batch must equal per-kernel PredictScore
// bit for bit, for every GNN variant and every reduction mode.
TEST_P(BatchParityTest, PredictBatchMatchesSequential) {
  const auto [gnn, reduction] = GetParam();
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  LearnedCostModel model(config);

  std::vector<ir::Graph> kernels;
  for (int k = 0; k < 6; ++k) {
    kernels.push_back(RandomKernel(1000 + static_cast<std::uint64_t>(k) * 17,
                                   5 + 7 * k));
  }
  for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
  const std::vector<ir::TileConfig> tiles = {
      {{16, 64}}, {{1, 8}}, {{8, 8}}, {{4, 32}}, {{2, 16}}, {{32, 4}}};
  for (const auto& tile : tiles) model.FitTileScaler(tile);
  model.FinishFitting();

  std::vector<PreparedKernel> prepared;
  prepared.reserve(kernels.size());
  for (const auto& kernel : kernels) prepared.push_back(model.Prepare(kernel));

  std::vector<BatchItem> items;
  for (size_t i = 0; i < prepared.size(); ++i) {
    items.push_back({&prepared[i], &tiles[i]});
  }
  const PreparedBatch batch = model.PrepareBatch(items);
  EXPECT_EQ(batch.num_kernels(), static_cast<int>(items.size()));

  const std::vector<double> batched = model.PredictBatch(batch);
  ASSERT_EQ(batched.size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const double sequential = model.PredictScore(prepared[i], &tiles[i]);
    EXPECT_TRUE(std::isfinite(batched[i]));
    EXPECT_EQ(batched[i], sequential)
        << "kernel " << i << " (" << ToString(gnn) << " + "
        << ToString(reduction) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchParityTest,
    ::testing::Combine(
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

// The undirected (symmetric-aggregation) ablation must also agree.
TEST(BatchParity, UndirectedGraphSage) {
  ModelConfig config = SmallConfig();
  config.directed_edges = false;
  LearnedCostModel model(config);
  std::vector<ir::Graph> kernels = {RandomKernel(7, 9), RandomKernel(8, 23)};
  for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
  const ir::TileConfig tile{{8, 64}};
  model.FitTileScaler(tile);
  model.FinishFitting();

  std::vector<PreparedKernel> prepared;
  for (const auto& kernel : kernels) prepared.push_back(model.Prepare(kernel));
  std::vector<BatchItem> items;
  for (const auto& pk : prepared) items.push_back({&pk, &tile});
  const std::vector<double> batched =
      model.PredictBatch(model.PrepareBatch(items));
  for (size_t i = 0; i < prepared.size(); ++i) {
    EXPECT_EQ(batched[i], model.PredictScore(prepared[i], &tile));
  }
}

// Both kernel-embedding feature placements (option 2) must agree too.
TEST(BatchParity, KernelEmbeddingPlacement) {
  ModelConfig config = SmallConfig();
  config.tile_placement = FeaturePlacement::kKernelEmbedding;
  config.static_perf_placement = FeaturePlacement::kKernelEmbedding;
  LearnedCostModel model(config);
  std::vector<ir::Graph> kernels = {RandomKernel(21, 12), RandomKernel(22, 4)};
  for (const auto& kernel : kernels) model.FitNodeScaler(kernel);
  const ir::TileConfig tile{{4, 16}};
  model.FitTileScaler(tile);
  model.FinishFitting();

  std::vector<PreparedKernel> prepared;
  for (const auto& kernel : kernels) prepared.push_back(model.Prepare(kernel));
  std::vector<BatchItem> items;
  for (const auto& pk : prepared) items.push_back({&pk, &tile});
  const std::vector<double> batched =
      model.PredictBatch(model.PrepareBatch(items));
  for (size_t i = 0; i < prepared.size(); ++i) {
    EXPECT_EQ(batched[i], model.PredictScore(prepared[i], &tile));
  }
}

// PredictBatchSeconds applies the log-target exp() per element.
TEST(BatchParity, SecondsAppliesExp) {
  ModelConfig config = SmallConfig();
  config.log_target = true;
  config.use_tile_features = false;
  LearnedCostModel model(config);
  const ir::Graph kernel = RandomKernel(31, 10);
  model.FitNodeScaler(kernel);
  model.FinishFitting();
  const PreparedKernel pk = model.Prepare(kernel);
  const std::vector<BatchItem> items = {{&pk, nullptr}, {&pk, nullptr}};
  const PreparedBatch batch = model.PrepareBatch(items);
  const auto scores = model.PredictBatch(batch);
  const auto seconds = model.PredictBatchSeconds(batch);
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_NEAR(seconds[i], std::exp(scores[i]), 1e-9 * seconds[i] + 1e-12);
  }
}

// Lockstep batched LSTM must reproduce per-segment sequential runs exactly,
// including with duplicate lengths and a segment of length 1.
TEST(BatchedLstm, MatchesSequentialPerSegment) {
  nn::ParamStore store;
  std::mt19937_64 rng(5);
  nn::Lstm lstm(store, "lstm", 6, 8, rng);
  const std::vector<int> lengths = {3, 1, 5, 3, 2};
  std::vector<int> offsets = {0};
  for (const int len : lengths) offsets.push_back(offsets.back() + len);
  nn::Matrix x(offsets.back(), 6);
  std::uniform_real_distribution<float> dist(-1, 1);
  for (float& v : x.flat()) v = dist(rng);

  nn::Tape tape;
  nn::Tensor packed = tape.Leaf(x);
  nn::Tensor batched = lstm.ForwardBatched(tape, packed, offsets);
  ASSERT_EQ(batched.rows(), static_cast<int>(lengths.size()));
  for (size_t b = 0; b < lengths.size(); ++b) {
    nn::Matrix seg(lengths[b], 6);
    for (int i = 0; i < lengths[b]; ++i) {
      for (int j = 0; j < 6; ++j) {
        seg.at(i, j) = x.at(offsets[b] + i, j);
      }
    }
    nn::Tensor sequential =
        lstm.Forward(tape, tape.Leaf(std::move(seg))).final_hidden;
    for (int j = 0; j < 8; ++j) {
      EXPECT_NEAR(batched.value().at(static_cast<int>(b), j),
                  sequential.value().at(0, j), 1e-6)
          << "segment " << b << " unit " << j;
    }
  }
}

// The LSTM sequence op's backward (BPTT inside one tape node) is
// hand-written; check it against finite differences through the whole
// ForwardBatched computation — every input entry and every parameter entry
// — on ragged segments including a length-1 one, at hidden sizes that do not
// fill the kernel's column block.
TEST(BatchedLstm, NumericalGradient) {
  for (const int hidden : {4, 20}) {
    nn::ParamStore store;
    std::mt19937_64 rng(11 + static_cast<std::uint64_t>(hidden));
    nn::Lstm lstm(store, "lstm", 3, hidden, rng);
    const std::vector<int> offsets = {0, 3, 4, 8, 10};  // lengths 3, 1, 4, 2
    std::uniform_real_distribution<float> dist(-1, 1);
    nn::Matrix x0(offsets.back(), 3);
    for (float& v : x0.flat()) v = dist(rng);
    nn::Matrix weight(static_cast<int>(offsets.size()) - 1, hidden);
    for (float& v : weight.flat()) v = dist(rng);

    const auto loss_of = [&](nn::Tape& tape, nn::Tensor x) {
      nn::Tensor out = lstm.ForwardBatched(tape, x, offsets);
      return nn::SumAllOp(tape, nn::MulOp(tape, out, tape.Leaf(weight)));
    };
    const auto loss_value = [&](const nn::Matrix& xv) {
      nn::Tape tape;
      return static_cast<double>(loss_of(tape, tape.Leaf(xv)).scalar());
    };
    store.ZeroGrad();
    nn::Tape tape;
    nn::Tensor x = tape.Leaf(x0, /*requires_grad=*/true);
    tape.Backward(loss_of(tape, x));

    const float h = 1e-2f;
    const auto expect_close = [&](double analytic, double numeric,
                                  const std::string& what) {
      EXPECT_NEAR(analytic, numeric, 3e-3 * std::max(1.0, std::abs(numeric)))
          << what << " (hidden " << hidden << ")";
    };
    for (int r = 0; r < x0.rows(); ++r) {
      for (int c = 0; c < x0.cols(); ++c) {
        nn::Matrix plus = x0, minus = x0;
        plus.at(r, c) += h;
        minus.at(r, c) -= h;
        expect_close(x.grad().at(r, c),
                     (loss_value(plus) - loss_value(minus)) / (2 * h),
                     "d/dx[" + std::to_string(r) + "," + std::to_string(c) +
                         "]");
      }
    }
    for (nn::Parameter* p : store.params()) {
      for (size_t i = 0; i < p->value.size(); ++i) {
        const float orig = p->value.data()[i];
        p->value.data()[i] = orig + h;
        const double lp = loss_value(x0);
        p->value.data()[i] = orig - h;
        const double lm = loss_value(x0);
        p->value.data()[i] = orig;
        expect_close(p->grad.data()[i], (lp - lm) / (2 * h),
                     p->name + "[" + std::to_string(i) + "]");
      }
    }
  }
}

// Gradients must flow through the whole batched stack: a training step on a
// packed batch must touch every parameter the sequential step touches.
TEST(BatchedForward, GradientsReachParameters) {
  ModelConfig config = SmallConfig();
  config.dropout = 0;  // deterministic
  LearnedCostModel model(config);
  const ir::Graph a = RandomKernel(41, 8);
  const ir::Graph b = RandomKernel(42, 15);
  model.FitNodeScaler(a);
  model.FitNodeScaler(b);
  const ir::TileConfig tile{{8, 16}};
  model.FitTileScaler(tile);
  model.FinishFitting();
  const PreparedKernel pa = model.Prepare(a);
  const PreparedKernel pb = model.Prepare(b);
  const std::vector<BatchItem> items = {{&pa, &tile}, {&pb, &tile}};
  const PreparedBatch batch = model.PrepareBatch(items);

  nn::Tape tape;
  nn::Tensor out = model.ForwardBatch(tape, batch, /*training=*/true);
  ASSERT_EQ(out.rows(), 2);
  nn::Tensor loss = nn::MeanAllOp(tape, out);
  tape.Backward(loss);

  int with_grad = 0;
  for (nn::Parameter* p : model.params().params()) {
    double norm = 0;
    for (const float g : p->grad.flat()) norm += std::abs(g);
    if (norm > 0) ++with_grad;
  }
  // The output head, LSTM gates, GNN layers, f1 and the embedding must all
  // receive gradient; allow a small number of untouched rows (e.g. unused
  // opcode embeddings are updated only via touched rows).
  EXPECT_GT(with_grad, 10);
}

// Malformed batches are rejected.
TEST(PrepareBatch, ValidatesInput) {
  LearnedCostModel model(SmallConfig());
  const ir::Graph kernel = RandomKernel(51, 6);
  model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();
  const PreparedKernel pk = model.Prepare(kernel);

  EXPECT_THROW(model.PrepareBatch({}), std::invalid_argument);
  {
    const std::vector<BatchItem> items = {{nullptr, nullptr}};
    EXPECT_THROW(model.PrepareBatch(items), std::invalid_argument);
  }
  {
    // Tile-feature models require a tile per item.
    const std::vector<BatchItem> items = {{&pk, nullptr}};
    EXPECT_THROW(model.PrepareBatch(items), std::invalid_argument);
  }
}

// ---- Training gradients ----------------------------------------------------

namespace train_grads {

struct Minibatch {
  std::vector<ir::Graph> kernels;
  std::vector<PreparedKernel> prepared;
  std::vector<ir::TileConfig> tiles;
  std::vector<BatchItem> items;
  std::vector<double> targets;
  PreparedBatch batch;
};

// A minibatch of `size` mixed-size kernels, as the trainers assemble.
Minibatch MakeMinibatch(LearnedCostModel& model, std::uint64_t seed,
                        int size) {
  Minibatch mb;
  std::mt19937_64 rng(seed);
  // Runtimes near 1 s keep the log-MSE loss O(1), so its float round-off
  // stays far below the central-difference tolerance.
  std::uniform_real_distribution<double> runtime(0.5, 2.0);
  for (int i = 0; i < size; ++i) {
    mb.kernels.push_back(
        RandomKernel(seed + static_cast<std::uint64_t>(i) * 13, 4 + i % 14));
    mb.tiles.push_back(ir::TileConfig{{1 << (i % 5), 8 << (i % 3)}});
    mb.targets.push_back(runtime(rng));
  }
  for (const auto& kernel : mb.kernels) model.FitNodeScaler(kernel);
  for (const auto& tile : mb.tiles) model.FitTileScaler(tile);
  model.FinishFitting();
  mb.prepared.reserve(mb.kernels.size());
  for (const auto& kernel : mb.kernels) {
    mb.prepared.push_back(model.Prepare(kernel));
  }
  for (size_t i = 0; i < mb.prepared.size(); ++i) {
    mb.items.push_back({&mb.prepared[i], &mb.tiles[i]});
  }
  mb.batch = model.PrepareBatch(mb.items);
  return mb;
}

// The training loss of one forward over the minibatch.
nn::Tensor StepLoss(nn::Tape& tape, LearnedCostModel& model,
                    const Minibatch& mb, LossKind loss_kind) {
  nn::Tensor out = model.ForwardBatch(tape, mb.batch, /*training=*/true);
  if (loss_kind == LossKind::kMse) {
    return nn::MseLogLoss(tape, out, mb.targets);
  }
  return nn::PairwiseRankLoss(tape, out, mb.targets,
                              nn::RankSurrogate::kHinge);
}

// One training step's parameter gradients (forward + loss + backward). With
// an arena the step runs twice on the same tape so the returned gradients
// come from a WARM pass (every buffer recycled) — any op that failed to
// fully overwrite a recycled buffer would diverge here.
std::vector<nn::Matrix> StepGradients(LearnedCostModel& model,
                                      const Minibatch& mb, LossKind loss_kind,
                                      nn::TapeArena* arena) {
  nn::Tape tape(arena);
  const int passes = arena != nullptr ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    model.params().ZeroGrad();
    tape.Clear();
    tape.Backward(StepLoss(tape, model, mb, loss_kind));
  }
  std::vector<nn::Matrix> grads;
  for (nn::Parameter* p : model.params().params()) grads.push_back(p->grad);
  return grads;
}

// Checks the warm-arena analytic gradients of a whole-model training step
// against central differences of the loss. Every parameter matrix is
// probed at its three largest-gradient entries and three random ones (the
// random ones catch a gradient the backward wrongly leaves at zero).
void CheckModelGradients(LearnedCostModel& model, const Minibatch& mb) {
  const LossKind loss_kind = model.config().loss;
  nn::TapeArena arena;
  const std::vector<nn::Matrix> grads =
      StepGradients(model, mb, loss_kind, &arena);
  EXPECT_GT(arena.requests(), 0u);
  const auto loss_value = [&] {
    nn::Tape tape;
    return static_cast<double>(StepLoss(tape, model, mb, loss_kind).scalar());
  };

  // Small enough that ReLU kinks rarely fall inside [x - h, x + h].
  constexpr float kStep = 3e-4f;
  std::mt19937_64 rng(17);
  const std::vector<nn::Parameter*> params = model.params().params();
  for (size_t p = 0; p < params.size(); ++p) {
    nn::Parameter& param = *params[p];
    const nn::Matrix& grad = grads[p];
    std::vector<size_t> order(grad.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const size_t top = std::min<size_t>(3, order.size());
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(top),
                      order.end(), [&](size_t a, size_t b) {
                        return std::abs(grad.data()[a]) >
                               std::abs(grad.data()[b]);
                      });
    std::vector<size_t> probes(order.begin(),
                               order.begin() + static_cast<long>(top));
    std::uniform_int_distribution<size_t> pick(0, grad.size() - 1);
    for (int r = 0; r < 3; ++r) probes.push_back(pick(rng));

    for (const size_t i : probes) {
      float& v = param.value.data()[i];
      const float orig = v;
      v = orig + kStep;
      const double plus = loss_value();
      v = orig - kStep;
      const double minus = loss_value();
      v = orig;
      const double numeric = (plus - minus) / (2.0 * kStep);
      const double analytic = grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  2e-2 * std::max({1e-1, std::abs(numeric),
                                   std::abs(analytic)}))
          << param.name << "[" << i << "] (config "
          << model.config().Summary() << ")";
    }
  }
}

}  // namespace train_grads

class TrainingGradientTest
    : public ::testing::TestWithParam<std::tuple<GnnKind, ReductionKind>> {};

// The tape backward (block-diagonal attention ops, accumulate-GEMM
// closures, LSTM BPTT, arena-recycled buffers) must match central
// differences of the whole model's rank loss for every GNN x reduction.
TEST_P(TrainingGradientTest, MatchesCentralDifferences) {
  const auto [gnn, reduction] = GetParam();
  ModelConfig config = SmallConfig();
  config.gnn = gnn;
  config.reduction = reduction;
  config.dropout = 0;  // deterministic across the probes
  LearnedCostModel model(config);
  const train_grads::Minibatch mb = train_grads::MakeMinibatch(
      model,
      9000 + static_cast<std::uint64_t>(gnn) * 101 +
          static_cast<std::uint64_t>(reduction) * 7,
      /*size=*/4);
  train_grads::CheckModelGradients(model, mb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrainingGradientTest,
    ::testing::Combine(
        ::testing::Values(GnnKind::kNone, GnnKind::kGraphSage, GnnKind::kGat),
        ::testing::Values(ReductionKind::kPerNode, ReductionKind::kColumnWise,
                          ReductionKind::kLstm, ReductionKind::kTransformer)));

// MSE path too (the fusion task's loss).
TEST(TrainingGradient, MseLossMatchesCentralDifferences) {
  ModelConfig config = SmallConfig();
  config.gnn = GnnKind::kGat;
  config.reduction = ReductionKind::kTransformer;
  config.loss = LossKind::kMse;
  config.dropout = 0;
  LearnedCostModel model(config);
  const train_grads::Minibatch mb =
      train_grads::MakeMinibatch(model, 9100, /*size=*/4);
  train_grads::CheckModelGradients(model, mb);
}

// The fused backward shards attention segments, GEMM rows, and LSTM cell
// rows across the pool; its partitioning never depends on the pool width,
// so a 4-thread backward must be BIT-identical to the 1-thread run.
TEST(FusedBackwardParity, ThreadedBackwardBitIdenticalAcrossWidths) {
  for (const auto& [gnn, reduction] :
       {std::pair{GnnKind::kGat, ReductionKind::kTransformer},
        std::pair{GnnKind::kGraphSage, ReductionKind::kLstm}}) {
    ModelConfig config = SmallConfig();
    config.gnn = gnn;
    config.reduction = reduction;
    config.dropout = 0;
    LearnedCostModel model(config);
    const train_grads::Minibatch mb =
        train_grads::MakeMinibatch(model, 9200, /*size=*/32);

    ThreadPool::SetNumThreads(1);
    const std::vector<nn::Matrix> serial =
        train_grads::StepGradients(model, mb, config.loss, nullptr);
    ThreadPool::SetNumThreads(4);
    nn::TapeArena arena;
    const std::vector<nn::Matrix> threaded =
        train_grads::StepGradients(model, mb, config.loss, &arena);
    ThreadPool::SetNumThreads(ThreadPool::DefaultNumThreads());

    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(nn::MaxAbsDiff(serial[p], threaded[p]), 0.0f)
          << "param " << p << " diverges across pool widths";
    }
  }
}

// ---- PreparedCache ---------------------------------------------------------

// Reuse: the same kernel fetched twice returns the same entry.
TEST(PreparedCache, ReusesEntries) {
  LearnedCostModel model(SmallConfig());
  const ir::Graph kernel = RandomKernel(61, 10);
  model.FitNodeScaler(kernel);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();

  PreparedCache cache(model);
  const ir::Graph::Hashes hashes = kernel.FingerprintAndSignature();
  const PreparedKernel& first =
      cache.Get(kernel, hashes.fingerprint, hashes.signature);
  const PreparedKernel& second =
      cache.Get(kernel, hashes.fingerprint, hashes.signature);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.collisions(), 0u);
}

// Collision regression: two structurally different kernels presented with
// the same fingerprint must NOT share a prepared entry — the cache detects
// the collision and keeps both, and earlier references stay valid.
TEST(PreparedCache, FingerprintCollisionKeepsBothEntries) {
  LearnedCostModel model(SmallConfig());
  const ir::Graph small = RandomKernel(71, 5);
  const ir::Graph large = RandomKernel(72, 19);
  model.FitNodeScaler(small);
  model.FitNodeScaler(large);
  model.FitTileScaler(ir::TileConfig{{8, 16}});
  model.FinishFitting();

  PreparedCache cache(model);
  // Force a collision: both graphs presented under the same key.
  const std::uint64_t shared_key = 0xDEADBEEFull;
  const std::uint64_t small_sig = small.StructuralSignature();
  const std::uint64_t large_sig = large.StructuralSignature();
  const PreparedKernel& a = cache.Get(small, shared_key, small_sig);
  const PreparedKernel& b = cache.Get(large, shared_key, large_sig);
  EXPECT_EQ(a.num_nodes, small.num_nodes());
  EXPECT_EQ(b.num_nodes, large.num_nodes());
  EXPECT_NE(&a, &b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.collisions(), 1u);

  // The reference returned before the collision was appended stays usable
  // and the chain resolves to the right entries on re-lookup.
  EXPECT_EQ(&cache.Get(small, shared_key, small_sig), &a);
  EXPECT_EQ(&cache.Get(large, shared_key, large_sig), &b);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.collisions(), 1u);
  EXPECT_EQ(a.num_nodes, small.num_nodes());
}

// ---- Segment ops -----------------------------------------------------------

TEST(SegmentOps, MatchColumnReductionsPerSegment) {
  std::mt19937_64 rng(81);
  std::uniform_real_distribution<float> dist(-2, 2);
  const std::vector<int> offsets = {0, 3, 4, 9};
  nn::Matrix x(9, 5);
  for (float& v : x.flat()) v = dist(rng);

  nn::Tape tape;
  nn::Tensor packed = tape.Leaf(x);
  nn::Tensor sum = nn::SegmentSumOp(tape, packed, offsets);
  nn::Tensor mean = nn::SegmentMeanOp(tape, packed, offsets);
  nn::Tensor max = nn::SegmentMaxOp(tape, packed, offsets);
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const int len = offsets[b + 1] - offsets[b];
    nn::Matrix seg(len, 5);
    for (int i = 0; i < len; ++i) {
      for (int j = 0; j < 5; ++j) seg.at(i, j) = x.at(offsets[b] + i, j);
    }
    nn::Tensor leaf = tape.Leaf(seg);
    nn::Tensor cs = nn::ColSumOp(tape, leaf);
    nn::Tensor cm = nn::ColMeanOp(tape, leaf);
    nn::Tensor cx = nn::ColMaxOp(tape, leaf);
    for (int j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(sum.value().at(static_cast<int>(b), j),
                      cs.value().at(0, j));
      EXPECT_FLOAT_EQ(mean.value().at(static_cast<int>(b), j),
                      cm.value().at(0, j));
      EXPECT_FLOAT_EQ(max.value().at(static_cast<int>(b), j),
                      cx.value().at(0, j));
    }
  }
}

TEST(SegmentOps, RejectBadOffsets) {
  nn::Tape tape;
  nn::Tensor x = tape.Leaf(nn::Matrix(4, 2));
  {
    const std::vector<int> bad = {0, 5};  // past the end
    EXPECT_THROW(nn::SegmentSumOp(tape, x, bad), std::invalid_argument);
  }
  {
    const std::vector<int> bad = {1, 4};  // does not start at 0
    EXPECT_THROW(nn::SegmentMeanOp(tape, x, bad), std::invalid_argument);
  }
  {
    const std::vector<int> bad = {0, 3, 2, 4};  // not monotone
    EXPECT_THROW(nn::SegmentMaxOp(tape, x, bad), std::invalid_argument);
  }
}

}  // namespace
}  // namespace tpuperf::core
