// Numerical gradient verification for every differentiable op and layer.
//
// Strategy: build a tiny scalar loss on top of the op under test, compute
// analytic gradients via the tape, then compare against central finite
// differences on the same forward function. This is the main property-based
// safety net under the learned cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <random>

#include "nn/attention.h"
#include "nn/gnn.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/rnn.h"
#include "nn/tape.h"

namespace tpuperf::nn {
namespace {

Matrix RandomMatrix(int rows, int cols, std::mt19937_64& rng,
                    float scale = 1.0f) {
  Matrix m(rows, cols);
  std::uniform_real_distribution<float> dist(-scale, scale);
  for (float& v : m.flat()) v = dist(rng);
  return m;
}

// Forward function: inputs -> scalar loss value. The function must rebuild
// the graph from scratch on each call (for finite differences).
using ForwardFn = std::function<double(const std::vector<Matrix>&)>;
// Tape-based version returning the loss tensor and input leaf tensors.
using TapeFn =
    std::function<Tensor(Tape&, std::vector<Tensor>&)>;

// Checks d(loss)/d(inputs[k]) for all k against central differences.
void CheckGradients(const std::vector<Matrix>& inputs, const TapeFn& build,
                    float tolerance = 2e-2f, float h = 1e-3f) {
  // Analytic gradients.
  Tape tape;
  std::vector<Tensor> leaves;
  leaves.reserve(inputs.size());
  for (const Matrix& m : inputs) {
    leaves.push_back(tape.Leaf(m, /*requires_grad=*/true));
  }
  std::vector<Tensor> leaves_copy = leaves;
  Tensor loss = build(tape, leaves_copy);
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  tape.Backward(loss);

  const auto eval = [&](const std::vector<Matrix>& xs) {
    Tape t;
    std::vector<Tensor> ls;
    ls.reserve(xs.size());
    for (const Matrix& m : xs) ls.push_back(t.Leaf(m, false));
    return static_cast<double>(build(t, ls).scalar());
  };

  for (size_t k = 0; k < inputs.size(); ++k) {
    const Matrix& analytic = leaves[k].node()->grad.empty()
                                 ? Matrix(inputs[k].rows(), inputs[k].cols())
                                 : leaves[k].node()->grad;
    for (int r = 0; r < inputs[k].rows(); ++r) {
      for (int c = 0; c < inputs[k].cols(); ++c) {
        std::vector<Matrix> plus = inputs;
        std::vector<Matrix> minus = inputs;
        plus[k].at(r, c) += h;
        minus[k].at(r, c) -= h;
        const double numeric = (eval(plus) - eval(minus)) / (2.0 * h);
        const double got = analytic.at(r, c);
        const double denom = std::max({1.0, std::abs(numeric), std::abs(got)});
        EXPECT_NEAR(got / denom, numeric / denom, tolerance)
            << "input " << k << " entry (" << r << "," << c << ")";
      }
    }
  }
}

TEST(GradCheck, MatMul) {
  std::mt19937_64 rng(1);
  CheckGradients({RandomMatrix(3, 4, rng), RandomMatrix(4, 2, rng)},
                 [](Tape& t, std::vector<Tensor>& in) {
                   return SumAllOp(t, MatMulOp(t, in[0], in[1]));
                 });
}

TEST(GradCheck, BlockDiagMatMulConstA) {
  std::mt19937_64 rng(2);
  // Two graphs, one with a repeated operand; edges include empty rows.
  const GraphStructure g0 = BuildGraphStructure({{}, {0}, {0, 1}, {2, 2}});
  const GraphStructure g1 = BuildGraphStructure({{}, {0}});
  const std::vector<const EdgeList*> blocks = {&g0.in_agg, &g1.out_agg};
  const std::vector<int> offsets = {0, 4, 6};
  CheckGradients({RandomMatrix(6, 3, rng)},
                 [&](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = BlockDiagMatMulConstA(t, blocks, offsets, in[0]);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, AddSubMul) {
  std::mt19937_64 rng(3);
  CheckGradients(
      {RandomMatrix(3, 3, rng), RandomMatrix(3, 3, rng)},
      [](Tape& t, std::vector<Tensor>& in) {
        Tensor a = AddOp(t, in[0], in[1]);
        Tensor s = SubOp(t, a, in[1]);
        Tensor m = MulOp(t, s, in[0]);
        return SumAllOp(t, m);
      });
}

TEST(GradCheck, AddRowBroadcast) {
  std::mt19937_64 rng(4);
  CheckGradients({RandomMatrix(4, 3, rng), RandomMatrix(1, 3, rng)},
                 [](Tape& t, std::vector<Tensor>& in) {
                   return SumAllOp(t, AddRowBroadcastOp(t, in[0], in[1]));
                 });
}

TEST(GradCheck, Activations) {
  std::mt19937_64 rng(5);
  for (int which = 0; which < 4; ++which) {
    CheckGradients(
        {RandomMatrix(3, 4, rng, 0.8f)},
        [which](Tape& t, std::vector<Tensor>& in) {
          Tensor y;
          switch (which) {
            case 0: y = ReluOp(t, in[0]); break;
            case 1: y = TanhOp(t, in[0]); break;
            case 2: y = SigmoidOp(t, in[0]); break;
            default: y = LeakyReluOp(t, in[0], 0.2f);
          }
          return SumAllOp(t, MulOp(t, y, y));
        });
  }
}

TEST(GradCheck, RowL2Normalize) {
  std::mt19937_64 rng(7);
  CheckGradients({RandomMatrix(3, 5, rng)},
                 [](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = RowL2NormalizeOp(t, in[0]);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, LayerNormRows) {
  std::mt19937_64 rng(8);
  CheckGradients(
      {RandomMatrix(3, 6, rng), RandomMatrix(1, 6, rng), RandomMatrix(1, 6, rng)},
      [](Tape& t, std::vector<Tensor>& in) {
        Tensor y = LayerNormRowsOp(t, in[0], in[1], in[2]);
        return SumAllOp(t, MulOp(t, y, y));
      },
      /*tolerance=*/3e-2f);
}

TEST(GradCheck, MaskedSoftmaxRows) {
  std::mt19937_64 rng(10);
  Matrix mask(3, 4);
  mask.at(0, 0) = 1;
  mask.at(0, 2) = 1;
  mask.at(1, 1) = 1;
  mask.at(1, 3) = 1;
  mask.at(2, 0) = 1;
  mask.at(2, 1) = 1;
  CheckGradients({RandomMatrix(3, 4, rng)},
                 [mask](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = MaskedSoftmaxRowsOp(t, in[0], mask);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, ConcatAndSlice) {
  std::mt19937_64 rng(11);
  CheckGradients(
      {RandomMatrix(2, 3, rng), RandomMatrix(2, 2, rng)},
      [](Tape& t, std::vector<Tensor>& in) {
        const Tensor parts[] = {in[0], in[1]};
        Tensor y = ConcatColsOp(t, parts);
        Tensor row = SliceRowOp(t, y, 1);
        return SumAllOp(t, MulOp(t, row, row));
      });
  CheckGradients(
      {RandomMatrix(2, 3, rng), RandomMatrix(3, 3, rng)},
      [](Tape& t, std::vector<Tensor>& in) {
        const Tensor parts[] = {in[0], in[1]};
        Tensor y = ConcatRowsOp(t, parts);
        return SumAllOp(t, MulOp(t, y, y));
      });
}

TEST(GradCheck, ColumnReductions) {
  std::mt19937_64 rng(12);
  for (int which = 0; which < 3; ++which) {
    CheckGradients({RandomMatrix(4, 3, rng)},
                   [which](Tape& t, std::vector<Tensor>& in) {
                     Tensor y;
                     switch (which) {
                       case 0: y = ColSumOp(t, in[0]); break;
                       case 1: y = ColMeanOp(t, in[0]); break;
                       default: y = ColMaxOp(t, in[0]);
                     }
                     return SumAllOp(t, MulOp(t, y, y));
                   });
  }
}

TEST(GradCheck, MeanAll) {
  std::mt19937_64 rng(13);
  CheckGradients({RandomMatrix(3, 3, rng)},
                 [](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = MulOp(t, in[0], in[0]);
                   return MeanAllOp(t, y);
                 });
}

TEST(GradCheck, GatherRows) {
  std::mt19937_64 rng(14);
  const std::vector<int> ids = {2, 0, 2, 1};
  CheckGradients({RandomMatrix(3, 4, rng)},
                 [ids](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = GatherRowsOp(t, in[0], ids);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, OuterSum) {
  std::mt19937_64 rng(15);
  CheckGradients({RandomMatrix(3, 1, rng), RandomMatrix(4, 1, rng)},
                 [](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = OuterSumOp(t, in[0], in[1]);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, PairwiseRankLossHinge) {
  std::mt19937_64 rng(17);
  const std::vector<double> targets = {3.0, 1.0, 2.0, 5.0};
  CheckGradients({RandomMatrix(4, 1, rng)},
                 [targets](Tape& t, std::vector<Tensor>& in) {
                   return PairwiseRankLoss(t, in[0], targets,
                                           RankSurrogate::kHinge);
                 });
}

TEST(GradCheck, PairwiseRankLossLogistic) {
  std::mt19937_64 rng(18);
  const std::vector<double> targets = {3.0, 1.0, 2.0, 5.0};
  CheckGradients({RandomMatrix(4, 1, rng)},
                 [targets](Tape& t, std::vector<Tensor>& in) {
                   return PairwiseRankLoss(t, in[0], targets,
                                           RankSurrogate::kLogistic);
                 });
}

TEST(GradCheck, MseLogLoss) {
  std::mt19937_64 rng(19);
  const std::vector<double> targets = {1e-6, 5e-6, 2e-5};
  CheckGradients({RandomMatrix(3, 1, rng)},
                 [targets](Tape& t, std::vector<Tensor>& in) {
                   return MseLogLoss(t, in[0], targets);
                 });
}

// ---- Layer-level checks: gradients flow through parameters --------------

// Wraps parameter gradients: builds the module once, then checks gradient of
// loss wrt a chosen parameter numerically by perturbing param values.
// `forward_loss` builds the 1x1 loss on the tape it is given.
void CheckParamGradients(ParamStore& store,
                         const std::function<Tensor(Tape&)>& forward_loss,
                         float tolerance = 3e-2f, float h = 1e-3f) {
  store.ZeroGrad();
  {
    Tape tape;
    tape.Backward(forward_loss(tape));
  }
  const auto loss_value = [&] {
    Tape tape;
    return static_cast<double>(forward_loss(tape).scalar());
  };
  for (Parameter* p : store.params()) {
    for (size_t i = 0; i < std::min<size_t>(p->value.size(), 4); ++i) {
      const float original = p->value.data()[i];
      p->value.data()[i] = original + h;
      const double plus = loss_value();
      p->value.data()[i] = original - h;
      const double minus = loss_value();
      p->value.data()[i] = original;
      const double numeric = (plus - minus) / (2.0 * h);
      const double got = p->grad.data()[i];
      const double denom = std::max({1.0, std::abs(numeric), std::abs(got)});
      EXPECT_NEAR(got / denom, numeric / denom, tolerance)
          << p->name << " entry " << i;
    }
  }
}

TEST(GradCheck, LinearAndMlpParams) {
  std::mt19937_64 rng(20);
  ParamStore store;
  Mlp mlp(store, "mlp", 4, {5, 3}, rng);
  const Matrix x = RandomMatrix(3, 4, rng);
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    Tensor y = mlp.Forward(tape, in);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

TEST(GradCheck, EmbeddingParams) {
  std::mt19937_64 rng(21);
  ParamStore store;
  Embedding emb(store, "emb", 6, 4, rng);
  const std::vector<int> ids = {1, 3, 1, 5};
  const auto loss_fn = [&](Tape& tape) {
    Tensor y = emb.Forward(tape, ids);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

TEST(GradCheck, LstmParams) {
  std::mt19937_64 rng(22);
  ParamStore store;
  Lstm lstm(store, "lstm", 3, 4, rng);
  const Matrix x = RandomMatrix(5, 3, rng);
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    auto out = lstm.Forward(tape, in);
    return SumAllOp(tape, MulOp(tape, out.final_hidden, out.final_hidden));
  };
  CheckParamGradients(store, loss_fn);
}

TEST(GradCheck, TransformerParams) {
  std::mt19937_64 rng(23);
  ParamStore store;
  TransformerEncoder enc(store, "tx", 4, 2, 1, rng);
  const Matrix x = RandomMatrix(3, 4, rng);
  const std::vector<int> offsets = {0, 3};  // one sequence
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    Tensor y = enc.Forward(tape, in, offsets);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

TEST(GradCheck, GraphSageParams) {
  std::mt19937_64 rng(24);
  ParamStore store;
  GraphSageLayer layer(store, "sage", 4, /*directed=*/true,
                       /*l2_normalize=*/true, rng);
  const std::vector<std::vector<int>> operands = {{}, {0}, {0, 1}, {2}};
  const GraphStructure graph = BuildGraphStructure(operands);
  const GraphStructure* const blocks[] = {&graph};
  const BatchedGraphStructure gs = PackGraphStructures(blocks);
  const Matrix x = RandomMatrix(4, 4, rng);
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    Tensor y = layer.Forward(tape, in, gs);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

TEST(GradCheck, GatParams) {
  std::mt19937_64 rng(25);
  ParamStore store;
  GatLayer layer(store, "gat", 4, /*num_heads=*/2, rng);
  const std::vector<std::vector<int>> operands = {{}, {0}, {0, 1}, {2}};
  const GraphStructure graph = BuildGraphStructure(operands);
  const GraphStructure* const blocks[] = {&graph};
  const BatchedGraphStructure gs = PackGraphStructures(blocks);
  const Matrix x = RandomMatrix(4, 4, rng);
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    Tensor y = layer.Forward(tape, in, gs);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

// ---- Fused block-diagonal attention and segment ops ----------------------

TEST(GradCheck, SegmentReductions) {
  std::mt19937_64 rng(30);
  const std::vector<int> offsets = {0, 3, 4, 7};
  for (int which = 0; which < 3; ++which) {
    CheckGradients({RandomMatrix(7, 3, rng)},
                   [which, offsets](Tape& t, std::vector<Tensor>& in) {
                     Tensor y;
                     switch (which) {
                       case 0: y = SegmentSumOp(t, in[0], offsets); break;
                       case 1: y = SegmentMeanOp(t, in[0], offsets); break;
                       default: y = SegmentMaxOp(t, in[0], offsets);
                     }
                     return SumAllOp(t, MulOp(t, y, y));
                   });
  }
}

TEST(GradCheck, BroadcastSegments) {
  std::mt19937_64 rng(34);
  const std::vector<int> offsets = {0, 3, 4, 7};
  CheckGradients({RandomMatrix(3, 2, rng)},
                 [offsets](Tape& t, std::vector<Tensor>& in) {
                   Tensor y = BroadcastSegmentsOp(t, in[0], offsets);
                   return SumAllOp(t, MulOp(t, y, y));
                 });
}

TEST(GradCheck, BlockDiagSelfAttention) {
  std::mt19937_64 rng(31);
  const std::vector<int> offsets = {0, 3, 5, 9};
  const float scale = 0.5f;
  CheckGradients(
      {RandomMatrix(9, 4, rng), RandomMatrix(9, 4, rng),
       RandomMatrix(9, 3, rng)},
      [offsets, scale](Tape& t, std::vector<Tensor>& in) {
        Tensor y =
            BlockDiagSelfAttentionOp(t, in[0], in[1], in[2], offsets, scale);
        return SumAllOp(t, MulOp(t, y, y));
      });
}

TEST(GradCheck, BlockDiagGatAttention) {
  std::mt19937_64 rng(32);
  const std::vector<int> offsets = {0, 4, 7};
  // Edge masks from two small graphs (self-loops included, like sym_mask).
  const GraphStructure g0 = BuildGraphStructure({{}, {0}, {0, 1}, {2}});
  const GraphStructure g1 = BuildGraphStructure({{}, {0}, {1}});
  const std::vector<const Matrix*> masks = {&g0.sym_mask, &g1.sym_mask};
  CheckGradients(
      {RandomMatrix(7, 1, rng), RandomMatrix(7, 1, rng),
       RandomMatrix(7, 5, rng)},
      [offsets, masks](Tape& t, std::vector<Tensor>& in) {
        Tensor y = BlockDiagGatAttentionOp(t, in[0], in[1], in[2], masks,
                                           offsets, 0.2f);
        return SumAllOp(t, MulOp(t, y, y));
      });
}

// The fused op must agree with the unfused per-segment op chain it replaces
// — forward values exactly, gradients to float reassociation.
TEST(GradCheck, BlockDiagGatAttentionMatchesOpChain) {
  std::mt19937_64 rng(33);
  const std::vector<int> offsets = {0, 4, 7};
  const GraphStructure g0 = BuildGraphStructure({{}, {0}, {0, 1}, {2}});
  const GraphStructure g1 = BuildGraphStructure({{}, {0}, {1}});
  const std::vector<const Matrix*> masks = {&g0.sym_mask, &g1.sym_mask};
  const Matrix s0 = RandomMatrix(7, 1, rng);
  const Matrix d0 = RandomMatrix(7, 1, rng);
  const Matrix wh0 = RandomMatrix(7, 5, rng);

  Tape fused_tape;
  Tensor fs = fused_tape.Leaf(s0, true);
  Tensor fd = fused_tape.Leaf(d0, true);
  Tensor fwh = fused_tape.Leaf(wh0, true);
  Tensor fy =
      BlockDiagGatAttentionOp(fused_tape, fs, fd, fwh, masks, offsets, 0.2f);
  fused_tape.Backward(SumAllOp(fused_tape, MulOp(fused_tape, fy, fy)));

  Tape seed_tape;
  Tensor ss = seed_tape.Leaf(s0, true);
  Tensor sd = seed_tape.Leaf(d0, true);
  Tensor swh = seed_tape.Leaf(wh0, true);
  std::vector<Tensor> segs;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const int begin = offsets[b];
    const int len = offsets[b + 1] - begin;
    Tensor wh_b = SliceRowsOp(seed_tape, swh, begin, len);
    Tensor s_b = SliceRowsOp(seed_tape, ss, begin, len);
    Tensor d_b = SliceRowsOp(seed_tape, sd, begin, len);
    Tensor logits =
        LeakyReluOp(seed_tape, OuterSumOp(seed_tape, s_b, d_b), 0.2f);
    Tensor attn = MaskedSoftmaxRowsOp(seed_tape, logits, *masks[b]);
    segs.push_back(MatMulOp(seed_tape, attn, wh_b));
  }
  Tensor sy = ConcatRowsOp(seed_tape, segs);
  seed_tape.Backward(SumAllOp(seed_tape, MulOp(seed_tape, sy, sy)));

  // Same arithmetic, differently-structured loops: equal up to FP
  // contraction (FMA) differences under -march=native.
  EXPECT_LT(MaxAbsDiff(fy.value(), sy.value()), 1e-6f);
  EXPECT_LT(MaxAbsDiff(fs.grad(), ss.grad()), 1e-5f);
  EXPECT_LT(MaxAbsDiff(fd.grad(), sd.grad()), 1e-5f);
  EXPECT_LT(MaxAbsDiff(fwh.grad(), swh.grad()), 1e-5f);
}

// ---- Arena-backed tapes ---------------------------------------------------

// A tape reused across steps through a TapeArena must (a) produce the exact
// same gradients every step and (b) stop allocating once warm.
TEST(TapeArenaTest, RecycledStepsAreExactAndAllocationFree) {
  std::mt19937_64 rng(34);
  ParamStore store;
  Mlp mlp(store, "mlp", 6, {8, 4}, rng);
  const Matrix x = RandomMatrix(5, 6, rng);

  TapeArena arena;
  Tape tape(&arena);
  std::vector<Matrix> first_grads;
  std::size_t warm_allocations = 0;
  for (int step = 0; step < 4; ++step) {
    tape.Clear();
    store.ZeroGrad();
    if (step == 1) arena.ResetStats();  // steps >= 1 should be all-recycled
    Tensor in = tape.Leaf(x);
    Tensor y = mlp.Forward(tape, in);
    Tensor loss = SumAllOp(tape, MulOp(tape, y, y));
    tape.Backward(loss);
    if (step == 0) {
      for (Parameter* p : store.params()) first_grads.push_back(p->grad);
    } else {
      size_t i = 0;
      for (Parameter* p : store.params()) {
        EXPECT_EQ(MaxAbsDiff(p->grad, first_grads[i++]), 0.0f)
            << "step " << step << " param " << p->name;
      }
    }
    if (step >= 1) warm_allocations = arena.heap_allocations();
  }
  EXPECT_GT(arena.requests(), 0u);
  EXPECT_EQ(warm_allocations, 0u)
      << "warm steps should recycle every tape buffer";
}

// The pool holds no more buffers, and no more bytes, than one step of the
// largest shape acquires, however step shapes alternate: a request that
// outgrows every pooled buffer replaces the largest one instead of adding
// to the pool.
TEST(TapeArenaTest, PoolIsBoundedByTheLargestStep) {
  std::mt19937_64 rng(36);
  ParamStore store;
  Mlp mlp(store, "mlp", 6, {8, 4}, rng);
  const Matrix small = RandomMatrix(3, 6, rng);
  const Matrix large = RandomMatrix(40, 6, rng);
  const auto step = [&](Tape& tape, const Matrix& x) {
    tape.Clear();
    store.ZeroGrad();
    // The input comes from the arena too, so the pool holds only arena
    // buffers (a foreign leaf's buffer may take an arena buffer's slot).
    Matrix in = tape.NewMatrixUninit(x.rows(), x.cols());
    std::copy(x.flat().begin(), x.flat().end(), in.data());
    Tensor y = mlp.Forward(tape, tape.Leaf(std::move(in)));
    tape.Backward(SumAllOp(tape, MulOp(tape, y, y)));
    tape.Clear();
  };

  // What one large step acquires: a fresh arena's pool after it.
  TapeArena fresh;
  {
    Tape tape(&fresh);
    step(tape, large);
  }
  const std::size_t large_buffers = fresh.pooled_buffers();
  const std::size_t large_bytes = fresh.pooled_bytes();
  ASSERT_GT(large_buffers, 0u);

  TapeArena arena;
  Tape tape(&arena);
  for (int i = 0; i < 12; ++i) {
    step(tape, i % 2 == 0 ? small : large);
    EXPECT_LE(arena.pooled_buffers(), large_buffers) << "step " << i;
    EXPECT_LE(arena.pooled_bytes(), large_bytes) << "step " << i;
  }
  EXPECT_GT(arena.heap_allocations(), 0u);
}

// Arena-backed gradients also pass the numerical check (same CheckGradients
// harness, but the analytic pass runs on an arena tape warmed by a prior
// identical pass).
TEST(TapeArenaTest, NumericalGradientOnWarmArena) {
  std::mt19937_64 rng(35);
  const Matrix a = RandomMatrix(3, 4, rng);
  const Matrix b = RandomMatrix(4, 2, rng);

  TapeArena arena;
  Tape tape(&arena);
  Matrix da, db;
  for (int step = 0; step < 2; ++step) {  // second pass runs fully recycled
    tape.Clear();
    Tensor ta = tape.Leaf(a, true);
    Tensor tb = tape.Leaf(b, true);
    Tensor loss = SumAllOp(tape, MatMulOp(tape, ta, tb));
    tape.Backward(loss);
    da = ta.grad();
    db = tb.grad();
  }

  const auto eval = [&](const Matrix& av, const Matrix& bv) {
    Tape t;
    return SumAllOp(t, MatMulOp(t, t.Leaf(av), t.Leaf(bv))).scalar();
  };
  const float h = 1e-2f;
  for (const auto& [r, c] : {std::pair{0, 0}, {2, 3}}) {
    Matrix plus = a, minus = a;
    plus.at(r, c) += h;
    minus.at(r, c) -= h;
    const float numeric = (eval(plus, b) - eval(minus, b)) / (2 * h);
    EXPECT_NEAR(da.at(r, c), numeric, 2e-2f);
  }
  for (const auto& [r, c] : {std::pair{0, 1}, {3, 0}}) {
    Matrix plus = b, minus = b;
    plus.at(r, c) += h;
    minus.at(r, c) -= h;
    const float numeric = (eval(a, plus) - eval(a, minus)) / (2 * h);
    EXPECT_NEAR(db.at(r, c), numeric, 2e-2f);
  }
}

TEST(GradCheck, UndirectedGraphSageParams) {
  std::mt19937_64 rng(26);
  ParamStore store;
  GraphSageLayer layer(store, "sage_u", 4, /*directed=*/false,
                       /*l2_normalize=*/true, rng);
  const std::vector<std::vector<int>> operands = {{}, {0}, {0, 1}, {1, 2}};
  const GraphStructure graph = BuildGraphStructure(operands);
  const GraphStructure* const blocks[] = {&graph};
  const BatchedGraphStructure gs = PackGraphStructures(blocks);
  const Matrix x = RandomMatrix(4, 4, rng);
  const auto loss_fn = [&](Tape& tape) {
    Tensor in = tape.Leaf(x);
    Tensor y = layer.Forward(tape, in, gs);
    return SumAllOp(tape, MulOp(tape, y, y));
  };
  CheckParamGradients(store, loss_fn);
}

}  // namespace
}  // namespace tpuperf::nn
