// Tests for the NN substrate beyond gradients: matrix kernels, the tape,
// optimizer behaviour, dropout statistics, parameter serialization, and
// graph-structure construction.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
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

namespace tpuperf::nn {
namespace {

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
  EXPECT_THROW(Add(Matrix(2, 3), Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(Hadamard(Matrix(2, 3), Matrix(2, 2)), std::invalid_argument);
}

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

TEST(Tape, NoGradModeRecordsNoBackward) {
  Tape tape(/*grad_enabled=*/false);
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), /*requires_grad=*/true);
  Tensor b = MulOp(tape, a, a);
  EXPECT_FALSE(b.requires_grad());
  EXPECT_THROW(tape.Backward(SumAllOp(tape, b)), std::logic_error);
}

TEST(Tape, BackwardRequiresScalarLoss) {
  Tape tape(true);
  Tensor a = tape.Leaf(Matrix::Constant(2, 2, 1.0f), true);
  EXPECT_THROW(tape.Backward(a), std::invalid_argument);
}

TEST(Tape, GradientAccumulatesAcrossUses) {
  Tape tape(true);
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

TEST(Dropout, InvertedScalingPreservesMeanAndZeroes) {
  Tape tape(true);
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

TEST(ParamStore, SaveLoadRoundTrip) {
  std::mt19937_64 rng(11);
  ParamStore a;
  a.Create("w1", 3, 4, Init::kXavierUniform, rng);
  a.Create("w2", 2, 2, Init::kSmallNormal, rng);

  std::mt19937_64 rng2(99);  // different init values
  ParamStore b;
  Parameter* b1 = b.Create("w1", 3, 4, Init::kXavierUniform, rng2);
  Parameter* b2 = b.Create("w2", 2, 2, Init::kSmallNormal, rng2);

  std::stringstream stream;
  a.Save(stream);
  b.Load(stream);
  EXPECT_LT(MaxAbsDiff(b1->value, a.params()[0]->value), 0.0f + 1e-9f);
  EXPECT_LT(MaxAbsDiff(b2->value, a.params()[1]->value), 0.0f + 1e-9f);
}

TEST(ParamStore, LoadRejectsMismatch) {
  std::mt19937_64 rng(1);
  ParamStore a;
  a.Create("w", 2, 2, Init::kZero, rng);
  ParamStore b;
  b.Create("different", 2, 2, Init::kZero, rng);
  std::stringstream stream;
  a.Save(stream);
  EXPECT_THROW(b.Load(stream), std::runtime_error);
  ParamStore c;  // wrong count
  std::stringstream stream2;
  a.Save(stream2);
  EXPECT_THROW(c.Load(stream2), std::runtime_error);
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
// equal the dense zero-skip scan exactly, on random graphs with repeated
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
    Tape tape(/*grad_enabled=*/true);
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
            want_dx.at(begin + k, j) += av * dy.at(begin + i, j);
          }
        }
      }
      // The zero-skip product, in the kernel's row-axpy form.
      for (int i = 0; i < a.rows(); ++i) {
        float* __restrict yi =
            want_y.data() + static_cast<size_t>(begin + i) * cols;
        for (int k = 0; k < a.cols(); ++k) {
          const float av = a.at(i, k);
          if (av == 0.0f) continue;
          const float* __restrict xk =
              x0.data() + static_cast<size_t>(begin + k) * cols;
          for (int j = 0; j < cols; ++j) yi[j] += av * xk[j];
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

// The recurrent products' per-element arithmetic: a multiply-add, fused
// exactly when the target has FMA.
float MulAdd(float a, float b, float acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// LstmSequenceForward's traced gates and h, and LstmSequenceBackward's dpre,
// against a scalar reference: each recurrent product element is one MulAdd
// chain from zero (over ascending p forward, ascending gate column j for
// dh_prev), and the gate arithmetic uses the kernels' own expressions.
TEST(LstmSequence, MatchesScalarReferenceBitForBit) {
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<float> dist(-1, 1);
  const std::vector<int> offsets = {0, 3, 4, 9, 11};  // lengths 3, 1, 5, 2
  const int rows = offsets.back();
  const int batch = static_cast<int>(offsets.size()) - 1;
  for (const int hidden : {4, 20, 32}) {
    SCOPED_TRACE("hidden=" + std::to_string(hidden));
    const int n = 4 * hidden;
    Matrix xw(rows, n), w_h(hidden, n), bias(1, n), dh_final(batch, hidden);
    for (Matrix* m : {&xw, &w_h, &bias, &dh_final}) {
      for (float& v : m->flat()) v = dist(rng);
    }
    Matrix h_final(batch, hidden), gates(rows, n), h_prev(rows, hidden),
        c_prev(rows, hidden), tanh_c(rows, hidden), dpre(rows, n);
    const LstmTrace trace{&h_prev, &c_prev, &gates, &tanh_c};
    LstmSequenceForward(h_final, xw, w_h, bias, offsets, &trace);
    LstmSequenceBackward(dpre, dh_final, w_h, offsets, trace,
                         /*parallel=*/false);

    for (int b = 0; b < batch; ++b) {
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
          ASSERT_EQ(gates.at(i, j), a[j]) << "gates at " << i << "," << j;
        }
      }
      for (int j = 0; j < hidden; ++j) {
        ASSERT_EQ(h_final.at(b, j), h[j]) << "h at " << b << "," << j;
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
          ASSERT_EQ(dpre.at(i, j), dp[j]) << "dpre at " << i << "," << j;
        }
        for (int p = 0; p < hidden; ++p) {
          float acc = 0.0f;
          for (int j = 0; j < n; ++j) acc = MulAdd(dp[j], w_h.at(p, j), acc);
          dh[p] = acc;
        }
      }
    }
  }
}

TEST(Lstm, ShapesAndDeterminism) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Lstm lstm(store, "lstm", 6, 8, rng);
  Tape tape(false);
  Matrix x(4, 6);
  std::uniform_real_distribution<float> dist(-1, 1);
  for (float& v : x.flat()) v = dist(rng);
  const auto out1 = lstm.Forward(tape, tape.Leaf(x));
  EXPECT_EQ(out1.final_hidden.rows(), 1);
  EXPECT_EQ(out1.final_hidden.cols(), 8);
  EXPECT_EQ(out1.all_hidden.rows(), 4);
  Tape tape2(false);
  const auto out2 = lstm.Forward(tape2, tape2.Leaf(x));
  EXPECT_LT(MaxAbsDiff(out1.final_hidden.value(), out2.final_hidden.value()),
            1e-9f);
}

TEST(Mlp, DepthAndWidth) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Mlp mlp(store, "m", 4, {8, 8, 2}, Activation::kRelu, rng);
  EXPECT_EQ(mlp.num_layers(), 3);
  EXPECT_EQ(mlp.out_features(), 2);
  Tape tape(false);
  Tensor y = mlp.Forward(tape, tape.Leaf(Matrix(5, 4)));
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 2);
}

TEST(Embedding, OutOfRangeThrows) {
  std::mt19937_64 rng(5);
  ParamStore store;
  Embedding emb(store, "e", 4, 3, rng);
  Tape tape(false);
  const std::vector<int> bad = {5};
  EXPECT_THROW(emb.Forward(tape, bad), std::out_of_range);
}

}  // namespace
}  // namespace tpuperf::nn
