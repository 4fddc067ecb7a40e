// Tests for the NN substrate beyond gradients: matrix kernels, the tape,
// optimizer behaviour, dropout statistics, parameter serialization, and
// graph-structure construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "nn/fastmath.h"
#include "nn/gnn.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/op_kernels.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/simd.h"
#include "nn/tape.h"

namespace tpuperf::nn {
namespace {

// The kernels' per-element arithmetic (Adam, edge aggregation, the
// recurrent products): a multiply-add, fused exactly when the target has
// FMA.
float MulAdd(float a, float b, float acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

TEST(Matrix, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  float v = 1;
  for (float& x : a.flat()) x = v++;
  v = 1;
  for (float& x : b.flat()) x = v++;
  const Matrix c = MatMul(a, b);
  // [[1,2,3],[4,5,6]] @ [[1,2],[3,4],[5,6]] = [[22,28],[49,64]].
  EXPECT_FLOAT_EQ(c.at(0, 0), 22);
  EXPECT_FLOAT_EQ(c.at(0, 1), 28);
  EXPECT_FLOAT_EQ(c.at(1, 0), 49);
  EXPECT_FLOAT_EQ(c.at(1, 1), 64);
}

TEST(Matrix, TransposedMatMulsAgree) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> dist(-1, 1);
  Matrix a(4, 5), b(4, 3), c(3, 5);
  for (float& x : a.flat()) x = dist(rng);
  for (float& x : b.flat()) x = dist(rng);
  for (float& x : c.flat()) x = dist(rng);
  // a^T @ b: [5,4] x [4,3].
  EXPECT_LT(MaxAbsDiff(MatMulTransposeA(a, b), MatMul(Transpose(a), b)),
            1e-5f);
  // a @ c^T: [4,5] x [5,3].
  EXPECT_LT(MaxAbsDiff(MatMulTransposeB(a, c), MatMul(a, Transpose(c))),
            1e-5f);
}

TEST(Matrix, ShapeMismatchThrows) {
  EXPECT_THROW(MatMul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
  Matrix into;
  EXPECT_THROW(MatMulInto(into, Matrix(2, 3), Matrix(2, 3)),
               std::invalid_argument);
  // a^T @ b needs a.rows() == b.rows(); a @ b^T needs a.cols() == b.cols().
  EXPECT_THROW(MatMulTransposeA(Matrix(2, 3), Matrix(3, 2)),
               std::invalid_argument);
  EXPECT_THROW(MatMulTransposeB(Matrix(2, 3), Matrix(3, 2)),
               std::invalid_argument);
  // The accumulating variants also check dst against the product's shape:
  // [2,3]^T @ [2,4] is [3,4] and [2,3] @ [4,3]^T is [2,4].
  Matrix wrong_dst(4, 3);
  EXPECT_THROW(MatMulTransposeAAccum(wrong_dst, Matrix(2, 3), Matrix(2, 4)),
               std::invalid_argument);
  EXPECT_THROW(MatMulTransposeBAccum(wrong_dst, Matrix(2, 3), Matrix(4, 3)),
               std::invalid_argument);
  Matrix ta_dst(3, 4), tb_dst(2, 4);
  EXPECT_NO_THROW(MatMulTransposeAAccum(ta_dst, Matrix(2, 3), Matrix(2, 4)));
  EXPECT_NO_THROW(MatMulTransposeBAccum(tb_dst, Matrix(2, 3), Matrix(4, 3)));
  EXPECT_THROW(Add(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(Hadamard(Matrix(2, 3), Matrix(2, 2)), std::invalid_argument);
}

#if defined(__SANITIZE_ADDRESS__)
// Under AddressSanitizer, Uninit storage (fresh, or recycled with stale
// values) reads as quiet NaN, so an op that reads an output before writing
// it fails the sanitizer suites instead of reading a stale value.
TEST(Matrix, UninitStorageIsNanUnderAsan) {
  TapeArena arena;
  Matrix used = arena.Acquire(4, 8);
  used.Fill(1.0f);
  arena.Recycle(std::move(used));
  for (const Matrix& m :
       {Matrix(3, 5, Matrix::Storage(), Matrix::Uninit{}),
        arena.AcquireUninit(2, 8)}) {
    for (const float v : m.flat()) EXPECT_TRUE(std::isnan(v));
  }
}
#endif

TEST(Matrix, ColumnReductions) {
  Matrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 5;
  m.at(2, 0) = 3;
  m.at(0, 1) = -1;
  m.at(1, 1) = -5;
  m.at(2, 1) = -3;
  EXPECT_FLOAT_EQ(ColSum(m).at(0, 0), 9);
  EXPECT_FLOAT_EQ(ColMean(m).at(0, 1), -3);
  std::vector<int> argmax;
  const Matrix mx = ColMax(m, &argmax);
  EXPECT_FLOAT_EQ(mx.at(0, 0), 5);
  EXPECT_EQ(argmax[0], 1);
  EXPECT_FLOAT_EQ(mx.at(0, 1), -1);
  EXPECT_EQ(argmax[1], 0);
}

// Record mode is the gradient-free mode: no leaf requires grad, ops store
// no closure or parent list, and Backward refuses.
TEST(Tape, RecordModeRecordsNoBackward) {
  const GraphStructure graph = BuildGraphStructure({{}, {0}});
  const GraphStructure* const blocks[] = {&graph};
  const BatchedGraphStructure structure = PackGraphStructures(blocks);
  const std::vector<int> opcode_ids = {0, 0};
  ScheduleRecorder recorder(structure, opcode_ids);
  Tape tape(/*arena=*/nullptr, &recorder);
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), /*requires_grad=*/true);
  EXPECT_FALSE(a.requires_grad());
  Tensor x = tape.InputLeaf(Matrix::Constant(2, 2, 1.0f),
                            InputKind::kNodeFeatures);
  Tensor b = AddOp(tape, x, x);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_TRUE(b.node()->parents.empty());
  EXPECT_FALSE(b.node()->backward);
  EXPECT_THROW(tape.Backward(tape.Leaf(Matrix(1, 1))), std::logic_error);
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape;
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), true);
  EXPECT_THROW(tape.Backward(a), std::invalid_argument);
}

TEST(Tape, GradientAccumulatesAcrossUses) {
  Tape tape;
  Tensor a = tape.Leaf(Matrix::Constant(1, 1, 3.0f), true);
  Tensor s = AddOp(tape, a, a);  // ds/da = 2
  tape.Backward(SumAllOp(tape, s));
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 2.0f);
}

TEST(Adam, ConvergesOnQuadratic) {
  ParamStore store;
  std::mt19937_64 rng(1);
  Parameter* p = store.Create("x", 1, 1, Init::kZero, rng);
  p->value.at(0, 0) = 5.0f;
  AdamConfig config;
  config.learning_rate = 0.1;
  Adam adam(config);
  const auto params = store.params();
  for (int i = 0; i < 300; ++i) {
    // d/dx (x - 2)^2 = 2 (x - 2).
    p->grad.at(0, 0) = 2.0f * (p->value.at(0, 0) - 2.0f);
    adam.Step(params);
  }
  EXPECT_NEAR(p->value.at(0, 0), 2.0f, 0.05f);
  EXPECT_EQ(adam.step_count(), 300);
}

TEST(Adam, GradClippingBoundsNorm) {
  ParamStore store;
  std::mt19937_64 rng(1);
  Parameter* p = store.Create("x", 1, 2, Init::kZero, rng);
  AdamConfig config;
  config.learning_rate = 0.0;  // isolate clipping bookkeeping
  config.clip = GradClip::kNorm;
  config.clip_norm = 1.0;
  Adam adam(config);
  p->grad.at(0, 0) = 30.0f;
  p->grad.at(0, 1) = 40.0f;
  adam.Step(store.params());
  EXPECT_NEAR(adam.last_grad_norm(), 50.0, 1e-6);
}

TEST(Adam, LearningRateDecay) {
  AdamConfig config;
  config.learning_rate = 1.0;
  config.lr_decay = 0.5;
  Adam adam(config);
  adam.DecayLearningRate();
  adam.DecayLearningRate();
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.25);
}

// One tensor of the scalar float reference for Adam: the update the vector
// code must reproduce bit for bit (bias corrections hoisted into lr_t and
// inv_sqrt_bc2, each multiply-add one MulAdd).
struct AdamFloatReference {
  std::vector<float> value, m, v;

  void Step(const AdamConfig& c, long step, double scale,
            const std::vector<float>& grad) {
    const double bc1 = 1.0 - std::pow(c.beta1, step);
    const double bc2 = 1.0 - std::pow(c.beta2, step);
    const float lr_t = static_cast<float>(c.learning_rate / bc1);
    const float inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));
    for (size_t i = 0; i < value.size(); ++i) {
      const float g = grad[i] * static_cast<float>(scale);
      m[i] = MulAdd(static_cast<float>(c.beta1), m[i],
                    static_cast<float>(1.0 - c.beta1) * g);
      v[i] = MulAdd(static_cast<float>(c.beta2), v[i],
                    static_cast<float>(1.0 - c.beta2) * g * g);
      const float den = MulAdd(std::sqrt(v[i]), inv_sqrt_bc2,
                               static_cast<float>(c.epsilon));
      value[i] = value[i] - lr_t * m[i] / den;
    }
  }
};

// The update computed in double, as Adam did before it ran in float
// lanes: the accuracy reference the float update must track.
struct AdamDoubleReference {
  std::vector<float> value, m, v;

  void Step(const AdamConfig& c, long step, double scale,
            const std::vector<float>& grad) {
    const double bc1 = 1.0 - std::pow(c.beta1, step);
    const double bc2 = 1.0 - std::pow(c.beta2, step);
    for (size_t i = 0; i < value.size(); ++i) {
      const double g = static_cast<double>(grad[i]) * scale;
      const double m_new = c.beta1 * m[i] + (1.0 - c.beta1) * g;
      const double v_new = c.beta2 * v[i] + (1.0 - c.beta2) * g * g;
      m[i] = static_cast<float>(m_new);
      v[i] = static_cast<float>(v_new);
      value[i] -= static_cast<float>(c.learning_rate * (m_new / bc1) /
                                     (std::sqrt(v_new / bc2) + c.epsilon));
    }
  }
};

// The clip scale Adam::Step applies for the norm it reports.
double ClipScale(const AdamConfig& c, double norm) {
  return c.clip == GradClip::kNorm && norm > c.clip_norm && norm > 0
             ? c.clip_norm / norm
             : 1.0;
}

// Vector body and padded tail equal the scalar float reference bit for bit
// at sizes around the lane width, with and without clipping; the reported
// norm is the global gradient norm before clipping; grads end zeroed.
TEST(Adam, VectorUpdateEqualsScalarFloatReference) {
  const int sizes[] = {1, simd::kLanes - 1, simd::kLanes + 3, 4096};
  for (const bool clip : {false, true}) {
    SCOPED_TRACE(clip ? "clip" : "no clip");
    AdamConfig config;
    config.learning_rate = 3e-3;
    config.clip = clip ? GradClip::kNorm : GradClip::kNone;
    config.clip_norm = 2.0;
    Adam adam(config);
    ParamStore store;
    std::mt19937_64 rng(5);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    std::vector<AdamFloatReference> refs;
    for (size_t t = 0; t < std::size(sizes); ++t) {
      Parameter* p = store.Create("p" + std::to_string(t), 1, sizes[t],
                                  Init::kXavierUniform, rng);
      refs.push_back({{p->value.flat().begin(), p->value.flat().end()},
                      std::vector<float>(p->value.size()),
                      std::vector<float>(p->value.size())});
    }
    const auto params = store.params();
    for (long step = 1; step <= 6; ++step) {
      std::vector<std::vector<float>> grads;
      double norm_sq = 0;
      for (Parameter* p : params) {
        for (float& g : p->grad.flat()) {
          g = normal(rng) * (step % 2 == 0 ? 0.01f : 1.0f);
          norm_sq += static_cast<double>(g) * g;
        }
        grads.emplace_back(p->grad.flat().begin(), p->grad.flat().end());
      }
      adam.Step(params);
      EXPECT_NEAR(adam.last_grad_norm(), std::sqrt(norm_sq),
                  1e-5 * std::sqrt(norm_sq));
      const double scale = ClipScale(config, adam.last_grad_norm());
      if (clip) {
        EXPECT_EQ(scale != 1.0, step % 2 == 1) << step;
      }
      for (size_t t = 0; t < params.size(); ++t) {
        refs[t].Step(config, step, scale, grads[t]);
        const Parameter& p = *params[t];
        for (size_t i = 0; i < p.value.size(); ++i) {
          ASSERT_EQ(p.value.data()[i], refs[t].value[i]) << t << ":" << i;
          ASSERT_EQ(p.adam_m.data()[i], refs[t].m[i]) << t << ":" << i;
          ASSERT_EQ(p.adam_v.data()[i], refs[t].v[i]) << t << ":" << i;
          ASSERT_EQ(p.grad.data()[i], 0.0f) << t << ":" << i;
        }
      }
    }
  }
}

// A parameter whose gradient stops keeps decaying its first moment by
// beta1 per step; Adam flushes it to +0 below FLT_MIN instead of letting it
// go subnormal. The flushed share of the update is below the value's
// precision, so values stay bit-identical to the unflushed formula, and a
// parameter whose moments stay normal matches it in every field.
TEST(Adam, FirstMomentFlushesToZeroInsteadOfGoingSubnormal) {
  AdamConfig config;
  config.learning_rate = 1e-3;
  Adam adam(config);
  ParamStore store;
  std::mt19937_64 rng(13);
  const int n = simd::kLanes + 3;  // vector body and padded tail
  Parameter* stopped = store.Create("stopped", 1, n, Init::kXavierUniform, rng);
  Parameter* live = store.Create("live", 1, n, Init::kXavierUniform, rng);
  const auto reference = [](const Parameter& p) {
    return AdamFloatReference{{p.value.flat().begin(), p.value.flat().end()},
                              std::vector<float>(p.value.size()),
                              std::vector<float>(p.value.size())};
  };
  AdamFloatReference stopped_ref = reference(*stopped);
  AdamFloatReference live_ref = reference(*live);
  const auto subnormal = [](float x) {
    return std::fpclassify(x) == FP_SUBNORMAL;
  };
  std::normal_distribution<float> normal(0.0f, 1.0f);
  bool reference_went_subnormal = false;
  for (long step = 1; step <= 1200; ++step) {
    for (float& g : stopped->grad.flat()) g = step <= 5 ? normal(rng) : 0.0f;
    for (float& g : live->grad.flat()) g = normal(rng);
    const std::vector<float> stopped_grad(stopped->grad.flat().begin(),
                                          stopped->grad.flat().end());
    const std::vector<float> live_grad(live->grad.flat().begin(),
                                       live->grad.flat().end());
    adam.Step(store.params());
    stopped_ref.Step(config, step, 1.0, stopped_grad);
    live_ref.Step(config, step, 1.0, live_grad);
    for (int i = 0; i < n; ++i) {
      ASSERT_FALSE(subnormal(stopped->adam_m.data()[i])) << step << ":" << i;
      ASSERT_EQ(stopped->value.data()[i], stopped_ref.value[i])
          << step << ":" << i;
      ASSERT_EQ(stopped->adam_v.data()[i], stopped_ref.v[i])
          << step << ":" << i;
      reference_went_subnormal |= subnormal(stopped_ref.m[i]);
      ASSERT_EQ(live->value.data()[i], live_ref.value[i]) << step << ":" << i;
      ASSERT_EQ(live->adam_m.data()[i], live_ref.m[i]) << step << ":" << i;
      ASSERT_EQ(live->adam_v.data()[i], live_ref.v[i]) << step << ":" << i;
    }
  }
  EXPECT_TRUE(reference_went_subnormal)
      << "the unflushed moments must reach the subnormal range";
  for (const float m : stopped->adam_m.flat()) {
    EXPECT_EQ(m, 0.0f);
    EXPECT_FALSE(std::signbit(m)) << "flushed to +0";
  }
}

// Over 100 steps (clipping on, engaged on the large-gradient steps) the
// float update stays within 1e-5 relative of the double update.
TEST(Adam, FloatUpdateTracksDoubleUpdate) {
  AdamConfig config;
  config.clip = GradClip::kNorm;
  config.clip_norm = 5.0;
  Adam adam(config);
  ParamStore store;
  std::mt19937_64 rng(9);
  Parameter* p = store.Create("w", 37, 29, Init::kZero, rng);
  std::uniform_real_distribution<float> init(0.5f, 1.5f);
  for (float& x : p->value.flat()) x = init(rng) * (rng() % 2 ? 1.0f : -1.0f);
  AdamDoubleReference ref{{p->value.flat().begin(), p->value.flat().end()},
                          std::vector<float>(p->value.size()),
                          std::vector<float>(p->value.size())};
  std::normal_distribution<float> normal(0.0f, 1.0f);
  const std::vector<Parameter*> params = {p};
  double worst = 0;
  for (long step = 1; step <= 100; ++step) {
    for (float& g : p->grad.flat()) g = normal(rng) * (step % 3 ? 0.1f : 1.0f);
    const std::vector<float> grad(p->grad.flat().begin(), p->grad.flat().end());
    adam.Step(params);
    ref.Step(config, step, ClipScale(config, adam.last_grad_norm()), grad);
    for (size_t i = 0; i < ref.value.size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(p->value.data()[i]) -
                                       ref.value[i]) /
                                  std::abs(ref.value[i]));
    }
  }
  EXPECT_LE(worst, 1e-5);
}

TEST(Dropout, InvertedScalingPreservesMeanAndZeroes) {
  Tape tape;
  std::mt19937_64 rng(7);
  Tensor x = tape.Leaf(Matrix::Constant(50, 50, 1.0f), true);
  Tensor y = DropoutOp(tape, x, 0.3f, rng);
  int zeros = 0;
  double total = 0;
  for (const float v : y.value().flat()) {
    if (v == 0.0f) ++zeros;
    total += v;
  }
  const double n = 2500.0;
  EXPECT_NEAR(zeros / n, 0.3, 0.05);
  EXPECT_NEAR(total / n, 1.0, 0.08);  // inverted dropout keeps expectation
  EXPECT_THROW(DropoutOp(tape, x, 1.0f, rng), std::invalid_argument);
}

// The kept elements are scaled by 1 / (1 - rate), the dropped ones zeroed,
// and the backward applies the forward's mask.
TEST(Dropout, BackwardAppliesTheForwardMask) {
  std::mt19937_64 init(13);
  std::uniform_real_distribution<float> dist(0.5f, 1.5f);
  Matrix x0(97, 61), w(97, 61);
  for (float& v : x0.flat()) v = dist(init);
  for (float& v : w.flat()) v = dist(init) - 1.0f;
  const float rate = 0.4f, scale = 1.0f / (1.0f - rate);
  std::mt19937_64 rng(21);
  Tape tape;
  Tensor x = tape.Leaf(x0, /*requires_grad=*/true);
  Tensor y = DropoutOp(tape, x, rate, rng);
  tape.Backward(SumAllOp(tape, MulOp(tape, y, tape.Leaf(w))));
  for (size_t i = 0; i < x0.size(); ++i) {
    const bool kept = y.value().data()[i] != 0.0f;
    ASSERT_EQ(y.value().data()[i], kept ? x0.data()[i] * scale : 0.0f);
    ASSERT_EQ(x.grad().data()[i], kept ? w.data()[i] * scale : 0.0f) << i;
  }
}

// Over several calls (one key each) and rates, the kept count lies within
// 4 sigma of the binomial's mean, and successive calls draw different masks.
TEST(Dropout, KeptFractionWithinFourSigmaOfBinomial) {
  std::mt19937_64 rng(17);
  Tape tape;
  Tensor x = tape.Leaf(Matrix::Constant(200, 150, 1.0f));
  const double n = 200.0 * 150.0;
  for (const float rate : {0.05f, 0.1f, 0.3f, 0.5f, 0.9f}) {
    std::vector<float> previous;
    for (int call = 0; call < 4; ++call) {
      const Tensor y = DropoutOp(tape, x, rate, rng);
      double kept = 0;
      for (const float v : y.value().flat()) kept += v != 0.0f;
      const double p = 1.0 - rate;
      EXPECT_LE(std::abs(kept - n * p), 4.0 * std::sqrt(n * p * (1.0 - p)))
          << "rate " << rate << " call " << call;
      const std::vector<float> mask(y.value().flat().begin(),
                                    y.value().flat().end());
      EXPECT_NE(mask, previous) << "rate " << rate << " call " << call;
      previous = mask;
    }
  }
}

TEST(GraphStructure, NormalizedAdjacency) {
  // 0 -> 2, 1 -> 2, 2 -> 3.
  const std::vector<std::vector<int>> operands = {{}, {}, {0, 1}, {2}};
  const GraphStructure gs = BuildGraphStructure(operands);
  // Row i of an edge list as (column, weight) pairs.
  using Edges = std::vector<std::pair<int, float>>;
  const auto row = [](const EdgeList& list, int i) {
    Edges edges;
    for (int e = list.row_begin[i]; e < list.row_begin[i + 1]; ++e) {
      edges.emplace_back(list.col[e], list.weight[e]);
    }
    return edges;
  };
  ASSERT_EQ(gs.in_agg.rows(), 4);
  ASSERT_EQ(gs.out_agg.rows(), 4);
  // in_agg row 2 averages nodes 0 and 1; row 3 takes node 2.
  EXPECT_EQ(row(gs.in_agg, 0), Edges{});
  EXPECT_EQ(row(gs.in_agg, 2), (Edges{{0, 0.5f}, {1, 0.5f}}));
  EXPECT_EQ(row(gs.in_agg, 3), (Edges{{2, 1.0f}}));
  // out_agg row 0: node 0 feeds node 2 only.
  EXPECT_EQ(row(gs.out_agg, 0), (Edges{{2, 1.0f}}));
  EXPECT_EQ(row(gs.out_agg, 3), Edges{});
  // Mask is symmetric with self-loops.
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(gs.sym_mask.at(i, i), 1.0f);
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(gs.sym_mask.at(i, j), gs.sym_mask.at(j, i));
    }
  }
}

// Dense operators built as element-wise `+=` per operand use — the
// reference the edge lists must reproduce bit for bit.
struct DenseAdjacency {
  Matrix in_agg, out_agg, sym_norm;
};

DenseAdjacency BuildDenseAdjacency(
    const std::vector<std::vector<int>>& operands) {
  const int n = static_cast<int>(operands.size());
  DenseAdjacency d{Matrix(n, n), Matrix(n, n), Matrix()};
  std::vector<int> out_degree(n, 0);
  for (const auto& ops : operands) {
    for (const int j : ops) ++out_degree[j];
  }
  for (int i = 0; i < n; ++i) {
    for (const int j : operands[i]) {
      d.in_agg.at(i, j) += 1.0f / static_cast<float>(operands[i].size());
      d.out_agg.at(j, i) += 1.0f / static_cast<float>(out_degree[j]);
    }
  }
  d.sym_norm = Add(d.in_agg, d.out_agg);
  for (int i = 0; i < n; ++i) {
    float total = 0;
    for (int j = 0; j < n; ++j) total += d.sym_norm.at(i, j);
    if (total > 0) {
      for (int j = 0; j < n; ++j) d.sym_norm.at(i, j) /= total;
    }
  }
  return d;
}

// Edge-list aggregation (forward and its transposed-scatter backward) must
// equal the dense scan that skips zero weights exactly, one MulAdd per
// term, on random graphs with repeated
// operands and nodes without operands, packed as one block-diagonal batch.
TEST(EdgeListAggregation, MatchesDenseReferenceBitForBit) {
  std::mt19937_64 rng(41);
  std::vector<std::vector<std::vector<int>>> graphs;
  for (const int n : {1, 9, 24}) {
    std::vector<std::vector<int>> operands(n);
    for (int i = 1; i < n; ++i) {
      // Every third node has no operands; the rest draw 1-4 with repeats.
      if (i % 3 == 0) continue;
      const int count = 1 + static_cast<int>(rng() % 4);
      for (int k = 0; k < count; ++k) {
        operands[i].push_back(static_cast<int>(rng() % i));
      }
    }
    graphs.push_back(std::move(operands));
  }
  std::vector<GraphStructure> structures;
  std::vector<DenseAdjacency> dense;
  std::vector<int> offsets = {0};
  for (const auto& operands : graphs) {
    structures.push_back(BuildGraphStructure(operands));
    dense.push_back(BuildDenseAdjacency(operands));
    offsets.push_back(offsets.back() + static_cast<int>(operands.size()));
  }
  const int total = offsets.back();
  const int cols = 19;
  std::uniform_real_distribution<float> dist(-1, 1);
  Matrix x0(total, cols), dy(total, cols);
  for (float& v : x0.flat()) v = dist(rng);
  for (float& v : dy.flat()) v = dist(rng);

  const std::pair<EdgeList GraphStructure::*, Matrix DenseAdjacency::*> ops[] =
      {{&GraphStructure::in_agg, &DenseAdjacency::in_agg},
       {&GraphStructure::out_agg, &DenseAdjacency::out_agg},
       {&GraphStructure::sym_norm, &DenseAdjacency::sym_norm}};
  for (const auto& [edge_op, dense_op] : ops) {
    std::vector<const EdgeList*> blocks;
    for (const auto& gs : structures) blocks.push_back(&(gs.*edge_op));
    Tape tape;
    Tensor x = tape.Leaf(x0, /*requires_grad=*/true);
    Tensor y = BlockDiagMatMulConstA(tape, blocks, offsets, x);
    tape.Backward(SumAllOp(tape, MulOp(tape, y, tape.Leaf(dy))));

    Matrix want_y(total, cols), want_dx(total, cols);
    for (size_t b = 0; b < graphs.size(); ++b) {
      const Matrix& a = dense[b].*dense_op;
      const int begin = offsets[b];
      for (int i = 0; i < a.rows(); ++i) {
        // The transposed scatter, rows then columns ascending.
        for (int k = 0; k < a.cols(); ++k) {
          const float av = a.at(i, k);
          if (av == 0.0f) continue;
          for (int j = 0; j < cols; ++j) {
            want_dx.at(begin + k, j) =
                MulAdd(av, dy.at(begin + i, j), want_dx.at(begin + k, j));
          }
        }
      }
      // The product, skipping zero weights, in the kernel's row-axpy form.
      for (int i = 0; i < a.rows(); ++i) {
        for (int k = 0; k < a.cols(); ++k) {
          const float av = a.at(i, k);
          if (av == 0.0f) continue;
          for (int j = 0; j < cols; ++j) {
            want_y.at(begin + i, j) =
                MulAdd(av, x0.at(begin + k, j), want_y.at(begin + i, j));
          }
        }
      }
    }
    for (int i = 0; i < total; ++i) {
      for (int j = 0; j < cols; ++j) {
        ASSERT_EQ(y.value().at(i, j), want_y.at(i, j)) << i << "," << j;
        ASSERT_EQ(x.grad().at(i, j), want_dx.at(i, j)) << i << "," << j;
      }
    }
  }
}

// Runs LstmSequenceForward (traced and untraced) and LstmSequenceBackward
// over segments of the given lengths and checks the traced gates, both runs'
// h and the dpre rows against a per-segment scalar reference.
void ExpectLstmMatchesScalarReference(const std::vector<int>& lengths,
                                      int hidden, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> dist(-1, 1);
  std::vector<int> offsets = {0};
  for (const int len : lengths) offsets.push_back(offsets.back() + len);
  const int rows = offsets.back();
  const int batch = static_cast<int>(lengths.size());
  const int n = 4 * hidden;
  Matrix xw(rows, n), w_h(hidden, n), bias(1, n), dh_final(batch, hidden);
  for (Matrix* m : {&xw, &w_h, &bias, &dh_final}) {
    for (float& v : m->flat()) v = dist(rng);
  }
  Matrix h_final(batch, hidden), h_untraced(batch, hidden), gates(rows, n),
      h_prev(rows, hidden), c_prev(rows, hidden), tanh_c(rows, hidden),
      dpre(rows, n);
  const LstmTrace trace{&h_prev, &c_prev, &gates, &tanh_c};
  LstmSequenceForward(h_final, xw, w_h, bias, offsets, &trace);
  LstmSequenceForward(h_untraced, xw, w_h, bias, offsets, nullptr);
  LstmSequenceBackward(dpre, dh_final, w_h, offsets, trace);

  for (int b = 0; b < batch; ++b) {
    SCOPED_TRACE("segment " + std::to_string(b));
    const int begin = offsets[b], end = offsets[b + 1];
    Matrix act(rows, n), tc(rows, hidden), cp(rows, hidden);
    std::vector<float> h(hidden, 0.0f), c(hidden, 0.0f);
    for (int i = begin; i < end; ++i) {
      float* a = act.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        float pre = 0.0f;
        for (int p = 0; p < hidden; ++p) pre = MulAdd(h[p], w_h.at(p, j), pre);
        a[j] = (xw.at(i, j) + bias.at(0, j)) + pre;
      }
      for (int j = 0; j < 2 * hidden; ++j) a[j] = FastSigmoid(a[j]);
      for (int j = 2 * hidden; j < 3 * hidden; ++j) a[j] = FastTanh(a[j]);
      for (int j = 3 * hidden; j < n; ++j) a[j] = FastSigmoid(a[j]);
      for (int j = 0; j < hidden; ++j) {
        cp.at(i, j) = c[j];
        c[j] = a[hidden + j] * c[j] + a[j] * a[2 * hidden + j];
      }
      for (int j = 0; j < hidden; ++j) {
        tc.at(i, j) = FastTanh(c[j]);
        h[j] = a[3 * hidden + j] * tc.at(i, j);
      }
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(gates.at(i, j), a[j]) << "gates at " << i << "," << j;
      }
    }
    for (int j = 0; j < hidden; ++j) {
      EXPECT_EQ(h_final.at(b, j), h[j]) << "traced h at " << b << "," << j;
      EXPECT_EQ(h_untraced.at(b, j), h[j]) << "h at " << b << "," << j;
    }

    std::vector<float> dh(dh_final.row(b).begin(), dh_final.row(b).end());
    std::vector<float> dc(hidden, 0.0f), dp(n);
    for (int i = end - 1; i >= begin; --i) {
      const float* g = act.data() + static_cast<size_t>(i) * n;
      for (int j = 0; j < hidden; ++j) {
        const float i_g = g[j], f_g = g[hidden + j];
        const float g_g = g[2 * hidden + j], o_g = g[3 * hidden + j];
        const float t = tc.at(i, j);
        const float dcj = dh[j] * o_g * (1.0f - t * t) + dc[j];
        dp[j] = dcj * g_g * i_g * (1.0f - i_g);
        dp[hidden + j] = dcj * cp.at(i, j) * f_g * (1.0f - f_g);
        dp[2 * hidden + j] = dcj * i_g * (1.0f - g_g * g_g);
        dp[3 * hidden + j] = dh[j] * t * o_g * (1.0f - o_g);
        dc[j] = dcj * f_g;
      }
      for (int j = 0; j < n; ++j) {
        EXPECT_EQ(dpre.at(i, j), dp[j]) << "dpre at " << i << "," << j;
      }
      for (int p = 0; p < hidden; ++p) {
        float acc = 0.0f;
        for (int j = 0; j < n; ++j) acc = MulAdd(dp[j], w_h.at(p, j), acc);
        dh[p] = acc;
      }
    }
  }
}

// The lockstep recurrence against the scalar reference: each recurrent
// product element is one MulAdd chain from zero (over ascending p forward,
// ascending gate column j for dh_prev), and the gate arithmetic uses the
// kernels' own expressions. The segment lengths cover single steps, equal
// lengths (a tile step's batch), and live sets that shrink from the end
// (ascending) or from the start (descending) of the batch.
TEST(LstmSequence, MatchesScalarReferenceBitForBit) {
  std::mt19937_64 rng(29);
  const std::vector<std::vector<int>> length_sets = {
      {3, 1, 5, 2},
      {1, 1, 1, 1, 1},
      std::vector<int>(12, 8),
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
      {12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
  };
  for (const int hidden : {4, 20, 32}) {
    for (const std::vector<int>& lengths : length_sets) {
      SCOPED_TRACE("hidden=" + std::to_string(hidden) + " segments=" +
                   std::to_string(lengths.size()) + " first length=" +
                   std::to_string(lengths.front()));
      ExpectLstmMatchesScalarReference(lengths, hidden, rng);
    }
  }
}

TEST(Lstm, ShapesAndDeterminism) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Lstm lstm(store, "lstm", 6, 8, rng);
  Tape tape;
  Matrix x(4, 6);
  std::uniform_real_distribution<float> dist(-1, 1);
  for (float& v : x.flat()) v = dist(rng);
  const auto out1 = lstm.Forward(tape, tape.Leaf(x));
  EXPECT_EQ(out1.final_hidden.rows(), 1);
  EXPECT_EQ(out1.final_hidden.cols(), 8);
  EXPECT_EQ(out1.all_hidden.rows(), 4);
  Tape tape2;
  const auto out2 = lstm.Forward(tape2, tape2.Leaf(x));
  EXPECT_LT(MaxAbsDiff(out1.final_hidden.value(), out2.final_hidden.value()),
            1e-9f);
}

TEST(Mlp, DepthAndWidth) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Mlp mlp(store, "m", 4, {8, 8, 2}, rng);
  EXPECT_EQ(mlp.num_layers(), 3);
  EXPECT_EQ(mlp.out_features(), 2);
  Tape tape;
  Tensor y = mlp.Forward(tape, tape.Leaf(Matrix(5, 4)));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Embedding, OutOfRangeThrows) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Embedding emb(store, "e", 4, 3, rng);
  Tape tape;
  const std::vector<int> bad = {5};
  EXPECT_THROW(emb.Forward(tape, bad), std::out_of_range);
}

}  // namespace
}  // namespace tpuperf::nn
