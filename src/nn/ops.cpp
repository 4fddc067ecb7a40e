#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <source_location>
#include <stdexcept>

#include "core/thread_pool.h"
#include "nn/fastmath.h"
#include "nn/op_kernels.h"
#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

void CheckSame(const Matrix& a, const Matrix& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.ShapeString() + " vs " + b.ShapeString());
  }
}

// Shorthand: elementwise unary op with dy/dx computable from x and y.
// The backward reads x and y from the tape nodes themselves (the parent's
// value and self.value stay alive on the tape), so no matrix copies are
// captured. `replay` and `op` are forwarded to NewNode (the defaults name
// the calling op).
template <typename Fwd, typename Bwd>
Tensor Unary(Tape& tape, Tensor x, Fwd fwd, Bwd bwd,
             std::optional<Replay> replay = std::nullopt,
             std::source_location op = std::source_location::current()) {
  const Matrix& xv = x.value();
  Matrix y = tape.NewMatrixUninit(xv.rows(), xv.cols());
  for (size_t i = 0; i < xv.size(); ++i) y.data()[i] = fwd(xv.data()[i]);
  TapeNode* xn = x.node();
  return tape.NewNode(
      std::move(y), {xn},
      [xn, bwd](TapeNode& self) {
        const float* __restrict xd = xn->value.data();
        const float* __restrict yd = self.value.data();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          xn->grad.data()[i] += self.grad.data()[i] * bwd(xd[i], yd[i]);
        }
      },
      replay, op);
}

}  // namespace

Tensor MatMulOp(Tape& tape, Tensor a, Tensor b) {
  Matrix y = tape.NewMatrixUninit(a.rows(), b.cols());
  MatMulInto(y, a.value(), b.value());
  TapeNode* an = a.node();
  TapeNode* bn = b.node();
  return tape.NewNode(
      std::move(y), {an, bn},
      [an, bn](TapeNode& self) {
        // The accumulate entry points (nn/matrix.h) add the product
        // straight into the grad: no temporary, no extra add pass.
        if (an->requires_grad) {
          MatMulTransposeBAccum(an->grad, self.grad, bn->value);
        }
        if (bn->requires_grad) {
          MatMulTransposeAAccum(bn->grad, an->value, self.grad);
        }
      },
      Replay{OpKind::kGemm});
}

Tensor AddOp(Tape& tape, Tensor a, Tensor b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSame(av, bv, "AddOp");
  Matrix y = tape.NewMatrixUninit(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    y.data()[i] = av.data()[i] + bv.data()[i];
  }
  TapeNode* an = a.node();
  TapeNode* bn = b.node();
  return tape.NewNode(
      std::move(y), {an, bn},
      [an, bn](TapeNode& self) {
        if (an->requires_grad) AccumulateInto(an->grad, self.grad);
        if (bn->requires_grad) AccumulateInto(bn->grad, self.grad);
      },
      Replay{OpKind::kAdd});
}

Tensor SubOp(Tape& tape, Tensor a, Tensor b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSame(av, bv, "SubOp");
  Matrix y = tape.NewMatrixUninit(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    y.data()[i] = av.data()[i] - bv.data()[i];
  }
  TapeNode* an = a.node();
  TapeNode* bn = b.node();
  return tape.NewNode(std::move(y), {an, bn}, [an, bn](TapeNode& self) {
    if (an->requires_grad) AccumulateInto(an->grad, self.grad);
    if (bn->requires_grad) AccumulateScaled(bn->grad, self.grad, -1.0f);
  });
}

Tensor MulOp(Tape& tape, Tensor a, Tensor b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  CheckSame(av, bv, "MulOp");
  Matrix y = tape.NewMatrixUninit(av.rows(), av.cols());
  for (size_t i = 0; i < av.size(); ++i) {
    y.data()[i] = av.data()[i] * bv.data()[i];
  }
  TapeNode* an = a.node();
  TapeNode* bn = b.node();
  return tape.NewNode(std::move(y), {an, bn}, [an, bn](TapeNode& self) {
    // Read the operand values from the parent nodes.
    const float* __restrict g = self.grad.data();
    if (an->requires_grad) {
      const float* __restrict bd = bn->value.data();
      for (size_t i = 0; i < self.grad.size(); ++i) {
        an->grad.data()[i] += g[i] * bd[i];
      }
    }
    if (bn->requires_grad) {
      const float* __restrict ad = an->value.data();
      for (size_t i = 0; i < self.grad.size(); ++i) {
        bn->grad.data()[i] += g[i] * ad[i];
      }
    }
  });
}

Tensor AddRowBroadcastOp(Tape& tape, Tensor x, Tensor bias) {
  const Matrix& xv = x.value();
  const Matrix& bv = bias.value();
  if (bv.rows() != 1 || bv.cols() != xv.cols()) {
    throw std::invalid_argument("AddRowBroadcastOp: bias must be [1, cols]");
  }
  Matrix y = tape.NewMatrixUninit(xv.rows(), xv.cols());
  AddRowBroadcastForward(y, xv, bv);
  TapeNode* xn = x.node();
  TapeNode* bn = bias.node();
  return tape.NewNode(
      std::move(y), {xn, bn},
      [xn, bn](TapeNode& self) {
        if (xn->requires_grad) AccumulateInto(xn->grad, self.grad);
        if (bn->requires_grad) {
          // Column sums accumulated straight into the bias grad
          // (ascending-row order; no [1, c] temporary).
          for (int i = 0; i < self.grad.rows(); ++i) {
            for (int j = 0; j < self.grad.cols(); ++j) {
              bn->grad.at(0, j) += self.grad.at(i, j);
            }
          }
        }
      },
      Replay{OpKind::kAddBias});
}

Tensor ReluOp(Tape& tape, Tensor x) {
  return Unary(
      tape, x, [](float v) { return v > 0 ? v : 0.0f; },
      [](float v, float) { return v > 0 ? 1.0f : 0.0f; },
      Replay{OpKind::kRelu});
}

Tensor LeakyReluOp(Tape& tape, Tensor x, float alpha) {
  return Unary(
      tape, x, [alpha](float v) { return v > 0 ? v : alpha * v; },
      [alpha](float v, float) { return v > 0 ? 1.0f : alpha; });
}

Tensor TanhOp(Tape& tape, Tensor x) {
  return Unary(
      tape, x, [](float v) { return FastTanh(v); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor SigmoidOp(Tape& tape, Tensor x) {
  return Unary(
      tape, x, [](float v) { return FastSigmoid(v); },
      [](float, float y) { return y * (1.0f - y); });
}

namespace {

// Element i's keep bit under `key`: a counter-based hash of (key, i), two
// rounds of the 32-bit murmur3-style finalizer with one key half mixed in
// before each, compared against the keep threshold. It depends only on the
// key and the flat index, so the mask loop vectorizes.
inline bool DropoutKeep(std::uint64_t key, std::uint32_t threshold,
                        std::uint32_t i) {
  std::uint32_t h = i * 0x9E3779B9u ^ static_cast<std::uint32_t>(key);
  h = (h ^ h >> 16) * 0x85EBCA6Bu;
  h = (h ^ h >> 13) * 0xC2B2AE35u;
  h ^= h >> 16 ^ static_cast<std::uint32_t>(key >> 32);
  h = (h ^ h >> 16) * 0x7FEB352Du;
  h = (h ^ h >> 15) * 0x846CA68Bu;
  return (h ^ h >> 16) < threshold;
}

}  // namespace

Tensor DropoutOp(Tape& tape, Tensor x, float rate, std::mt19937_64& rng) {
  if (rate <= 0.0f) return x;
  if (rate >= 1.0f) throw std::invalid_argument("DropoutOp: rate must be < 1");
  const Matrix& xv = x.value();
  // One draw per call; P(keep) = threshold / 2^32 = 1 - rate.
  const std::uint64_t key = rng();
  const auto threshold = static_cast<std::uint32_t>(
      std::min(std::ldexp(1.0 - rate, 32), 4294967295.0));
  const float scale = 1.0f / (1.0f - rate);
  Matrix mask = tape.NewMatrixUninit(xv.rows(), xv.cols());
  Matrix y = tape.NewMatrixUninit(xv.rows(), xv.cols());
  const std::uint32_t size = static_cast<std::uint32_t>(xv.size());
  for (std::uint32_t i = 0; i < size; ++i) {
    const float m = DropoutKeep(key, threshold, i) ? scale : 0.0f;
    mask.data()[i] = m;
    y.data()[i] = xv.data()[i] * m;
  }
  TapeNode* xn = x.node();
  // Stash the mask on the tape (arena-recycled) instead of in the closure.
  TapeNode* mask_node = tape.Leaf(std::move(mask)).node();
  return tape.NewNode(std::move(y), {xn}, [xn, mask_node](TapeNode& self) {
    const float* __restrict m = mask_node->value.data();
    for (size_t i = 0; i < self.grad.size(); ++i) {
      xn->grad.data()[i] += self.grad.data()[i] * m[i];
    }
  });
}

namespace {

void RowL2NormalizeBackward(const Matrix& yv,
                            const std::vector<float>& inv_norms, TapeNode* xn,
                            TapeNode& self) {
  // d/dx (x/|x|) = (G - y (y . G)) / |x|.
  const int cols = self.grad.cols();
  for (int i = 0; i < self.grad.rows(); ++i) {
    const float* g = self.grad.data() + static_cast<size_t>(i) * cols;
    const float* y = yv.data() + static_cast<size_t>(i) * cols;
    const float dot = simd::Dot(g, y, static_cast<size_t>(cols));
    const float inv = inv_norms[static_cast<size_t>(i)];
    float* dx = xn->grad.data() + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) dx[j] += (g[j] - dot * y[j]) * inv;
  }
}

}  // namespace

Tensor RowL2NormalizeOp(Tape& tape, Tensor x, float eps) {
  const Matrix& xv = x.value();
  Matrix y = tape.NewMatrixUninit(xv.rows(), xv.cols());
  TapeNode* xn = x.node();
  std::vector<float> inv_norms(static_cast<size_t>(xv.rows()));
  RowL2NormalizeForward(y, xv, eps, inv_norms.data());
  // y is read back from self.value in the backward; only the per-row norms
  // are captured.
  return tape.NewNode(
      std::move(y), {xn},
      [xn, inv_norms = std::move(inv_norms)](TapeNode& self) {
        RowL2NormalizeBackward(self.value, inv_norms, xn, self);
      },
      Replay{OpKind::kRowL2Norm, eps});
}

namespace {

void LayerNormBackward(const Matrix& xhat, const std::vector<float>& inv_std,
                       TapeNode* xn, TapeNode* gn, TapeNode* bn,
                       TapeNode& self) {
  const int n = self.grad.rows(), c = self.grad.cols();
  if (gn->requires_grad || bn->requires_grad) {
    for (int j = 0; j < c; ++j) {
      float dg = 0, db = 0;
      for (int i = 0; i < n; ++i) {
        dg += self.grad.at(i, j) * xhat.at(i, j);
        db += self.grad.at(i, j);
      }
      if (gn->requires_grad) gn->grad.at(0, j) += dg;
      if (bn->requires_grad) bn->grad.at(0, j) += db;
    }
  }
  if (xn->requires_grad) {
    for (int i = 0; i < n; ++i) {
      // dxhat = G * gamma; dx = istd*(dxhat - mean(dxhat)
      //                               - xhat*mean(dxhat*xhat)).
      double mean_dxhat = 0, mean_dxhat_xhat = 0;
      for (int j = 0; j < c; ++j) {
        const double dxh =
            static_cast<double>(self.grad.at(i, j)) * gn->value.at(0, j);
        mean_dxhat += dxh;
        mean_dxhat_xhat += dxh * xhat.at(i, j);
      }
      mean_dxhat /= c;
      mean_dxhat_xhat /= c;
      const float istd = inv_std[static_cast<size_t>(i)];
      for (int j = 0; j < c; ++j) {
        const double dxh =
            static_cast<double>(self.grad.at(i, j)) * gn->value.at(0, j);
        xn->grad.at(i, j) += static_cast<float>(
            istd * (dxh - mean_dxhat - xhat.at(i, j) * mean_dxhat_xhat));
      }
    }
  }
}

}  // namespace

Tensor LayerNormRowsOp(Tape& tape, Tensor x, Tensor gamma, Tensor beta,
                       float eps) {
  const Matrix& xv = x.value();
  const int n = xv.rows(), c = xv.cols();
  const Matrix& gv = gamma.value();
  const Matrix& bv = beta.value();
  Matrix y = tape.NewMatrixUninit(n, c);
  TapeNode* xn = x.node();
  TapeNode* gn = gamma.node();
  TapeNode* bn = beta.node();
  Matrix xhat = tape.NewMatrixUninit(n, c);
  std::vector<float> inv_std(static_cast<size_t>(n));
  LayerNormRowsForward(y, xv, gv, bv, eps, &xhat, inv_std.data());
  // xhat lives on the tape (arena-recycled stash leaf), not in the closure.
  TapeNode* xhat_node = tape.Leaf(std::move(xhat)).node();
  return tape.NewNode(
      std::move(y), {xn, gn, bn},
      [xn, gn, bn, xhat_node, inv_std = std::move(inv_std)](TapeNode& self) {
        LayerNormBackward(xhat_node->value, inv_std, xn, gn, bn, self);
      },
      Replay{OpKind::kLayerNorm, eps});
}

Tensor MaskedSoftmaxRowsOp(Tape& tape, Tensor x, const Matrix& mask) {
  const Matrix& xv = x.value();
  if (!mask.same_shape(xv)) {
    throw std::invalid_argument("MaskedSoftmaxRowsOp: mask shape mismatch");
  }
  const int n = xv.rows(), c = xv.cols();
  Matrix y = tape.NewMatrixUninit(n, c);
  for (int i = 0; i < n; ++i) {
    float max_v = -std::numeric_limits<float>::infinity();
    for (int j = 0; j < c; ++j) {
      if (mask.at(i, j) == 0.0f) continue;
      max_v = std::max(max_v, xv.at(i, j));
    }
    double denom = 0;
    for (int j = 0; j < c; ++j) {
      if (mask.at(i, j) == 0.0f) {
        y.at(i, j) = 0.0f;
        continue;
      }
      const float e = std::exp(xv.at(i, j) - max_v);
      y.at(i, j) = e;
      denom += e;
    }
    if (denom > 0) {
      const float inv = 1.0f / static_cast<float>(denom);
      for (int j = 0; j < c; ++j) y.at(i, j) *= inv;
    }
  }
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn}, [xn](TapeNode& self) {
    // dx = y * (G - sum_j(G_j y_j)) row-wise.
    const Matrix& yv = self.value;
    for (int i = 0; i < self.grad.rows(); ++i) {
      double dot = 0;
      for (int j = 0; j < self.grad.cols(); ++j) {
        dot += static_cast<double>(self.grad.at(i, j)) * yv.at(i, j);
      }
      for (int j = 0; j < self.grad.cols(); ++j) {
        xn->grad.at(i, j) +=
            yv.at(i, j) * (self.grad.at(i, j) - static_cast<float>(dot));
      }
    }
  });
}

Tensor ConcatColsOp(Tape& tape, std::span<const Tensor> parts) {
  if (parts.empty()) throw std::invalid_argument("ConcatColsOp: empty");
  const int n = parts.front().rows();
  int total_cols = 0;
  for (const Tensor& t : parts) {
    if (t.rows() != n) {
      throw std::invalid_argument("ConcatColsOp: row count mismatch");
    }
    total_cols += t.cols();
  }
  Matrix y = tape.NewMatrixUninit(n, total_cols);
  std::vector<TapeNode*> parents;
  std::vector<int> offsets;
  int off = 0;
  for (const Tensor& t : parts) {
    CopyColsForward(y, t.value(), off);
    parents.push_back(t.node());
    offsets.push_back(off);
    off += t.cols();
  }
  return tape.NewNode(
      std::move(y), parents,
      [parents, offsets](TapeNode& self) {
        for (size_t p = 0; p < parents.size(); ++p) {
          TapeNode* parent = parents[p];
          if (!parent->requires_grad) continue;
          const int off = offsets[p];
          for (int i = 0; i < parent->value.rows(); ++i) {
            for (int j = 0; j < parent->value.cols(); ++j) {
              parent->grad.at(i, j) += self.grad.at(i, off + j);
            }
          }
        }
      },
      Replay{OpKind::kCopyCols});
}

Tensor ConcatRowsOp(Tape& tape, std::span<const Tensor> parts) {
  if (parts.empty()) throw std::invalid_argument("ConcatRowsOp: empty");
  const int c = parts.front().cols();
  int total_rows = 0;
  for (const Tensor& t : parts) {
    if (t.cols() != c) {
      throw std::invalid_argument("ConcatRowsOp: col count mismatch");
    }
    total_rows += t.rows();
  }
  Matrix y = tape.NewMatrixUninit(total_rows, c);
  std::vector<TapeNode*> parents;
  std::vector<int> offsets;
  int off = 0;
  for (const Tensor& t : parts) {
    const Matrix& v = t.value();
    std::copy(v.flat().begin(), v.flat().end(), y.row(off).begin());
    parents.push_back(t.node());
    offsets.push_back(off);
    off += v.rows();
  }
  return tape.NewNode(
      std::move(y), parents,
      [parents, offsets](TapeNode& self) {
        for (size_t p = 0; p < parents.size(); ++p) {
          TapeNode* parent = parents[p];
          if (!parent->requires_grad) continue;
          const int off = offsets[p];
          for (int i = 0; i < parent->value.rows(); ++i) {
            for (int j = 0; j < parent->value.cols(); ++j) {
              parent->grad.at(i, j) += self.grad.at(off + i, j);
            }
          }
        }
      });
}

Tensor SliceRowOp(Tape& tape, Tensor x, int row) {
  const Matrix& xv = x.value();
  if (row < 0 || row >= xv.rows()) {
    throw std::out_of_range("SliceRowOp: row out of range");
  }
  Matrix y = tape.NewMatrixUninit(1, xv.cols());
  for (int j = 0; j < xv.cols(); ++j) y.at(0, j) = xv.at(row, j);
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn}, [xn, row](TapeNode& self) {
    for (int j = 0; j < self.grad.cols(); ++j) {
      xn->grad.at(row, j) += self.grad.at(0, j);
    }
  });
}

Tensor SliceRowsOp(Tape& tape, Tensor x, int begin, int rows) {
  const Matrix& xv = x.value();
  if (begin < 0 || rows < 0 || begin + rows > xv.rows()) {
    throw std::out_of_range("SliceRowsOp: range out of bounds");
  }
  Matrix y = tape.NewMatrixUninit(rows, xv.cols());
  if (rows > 0) {
    // Row-major: the slice is one contiguous block.
    const float* src = xv.data() + static_cast<size_t>(begin) * xv.cols();
    std::copy(src, src + y.flat().size(), y.flat().begin());
  }
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn}, [xn, begin](TapeNode& self) {
    for (int i = 0; i < self.grad.rows(); ++i) {
      for (int j = 0; j < self.grad.cols(); ++j) {
        xn->grad.at(begin + i, j) += self.grad.at(i, j);
      }
    }
  });
}

Tensor LstmSequenceOp(Tape& tape, Tensor xw, Tensor w_h, Tensor bias,
                      std::span<const int> offsets) {
  const int batch = static_cast<int>(offsets.size()) - 1;
  const int nodes = xw.rows();
  const int hidden = w_h.rows();
  Matrix y = tape.NewMatrixUninit(std::max(batch, 0), hidden);
  // The trace lives on the tape as stash leaves (arena-recycled).
  TapeNode* h_prev = tape.Leaf(tape.NewMatrixUninit(nodes, hidden)).node();
  TapeNode* c_prev = tape.Leaf(tape.NewMatrixUninit(nodes, hidden)).node();
  TapeNode* gates = tape.Leaf(tape.NewMatrixUninit(nodes, 4 * hidden)).node();
  TapeNode* tanh_c = tape.Leaf(tape.NewMatrixUninit(nodes, hidden)).node();
  const LstmTrace trace{&h_prev->value, &c_prev->value, &gates->value,
                        &tanh_c->value};
  const bool parallel = LstmSequenceForward(y, xw.value(), w_h.value(),
                                            bias.value(), offsets, &trace);
  TapeNode* xn = xw.node();
  TapeNode* wn = w_h.node();
  TapeNode* bn = bias.node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  TapeNode* dpre = tape.Leaf(tape.NewMatrixUninit(nodes, 4 * hidden)).node();
  return tape.NewNode(
      std::move(y), {xn, wn, bn},
      [xn, wn, bn, trace, dpre, offs = std::move(offs),
       parallel](TapeNode& self) {
        Matrix& dp = dpre->value;
        LstmSequenceBackward(dp, self.grad, wn->value, offs, trace, parallel);
        // Row i of dpre is d xw[i, :]; the weight and bias gradients are one
        // GEMM and one column sum over the whole sequence batch.
        if (xn->requires_grad) AccumulateInto(xn->grad, dp);
        if (wn->requires_grad) {
          MatMulTransposeAAccum(wn->grad, *trace.h_prev, dp);
        }
        if (bn->requires_grad) {
          for (int i = 0; i < dp.rows(); ++i) {
            for (int j = 0; j < dp.cols(); ++j) {
              bn->grad.at(0, j) += dp.at(i, j);
            }
          }
        }
      },
      Replay{OpKind::kLstmReduce, 0.0f, offsets.data()});
}

namespace {

void CheckSegmentOffsets(const Matrix& x, std::span<const int> offsets,
                         const char* op) {
  CheckSegmentOffsetsFor(x.rows(), offsets, op);
}

}  // namespace

Tensor SegmentSumOp(Tape& tape, Tensor x, std::span<const int> offsets) {
  const Matrix& xv = x.value();
  CheckSegmentOffsets(xv, offsets, "SegmentSumOp");
  const int batch = static_cast<int>(offsets.size()) - 1;
  Matrix y = tape.NewMatrix(batch, xv.cols());
  const bool parallel = SegmentSumForward(y, xv, offsets);
  TapeNode* xn = x.node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {xn},
      [xn, offs = std::move(offs), parallel](TapeNode& self) {
        ForEachSegment(
            self.grad.rows(), parallel, [&](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t b = b0; b < b1; ++b) {
                for (int i = offs[static_cast<size_t>(b)];
                     i < offs[static_cast<size_t>(b) + 1]; ++i) {
                  for (int j = 0; j < self.grad.cols(); ++j) {
                    xn->grad.at(i, j) += self.grad.at(static_cast<int>(b), j);
                  }
                }
              }
            });
      },
      Replay{OpKind::kSegmentSum, 0.0f, offsets.data()});
}

Tensor SegmentMeanOp(Tape& tape, Tensor x, std::span<const int> offsets) {
  const Matrix& xv = x.value();
  CheckSegmentOffsets(xv, offsets, "SegmentMeanOp");
  const int batch = static_cast<int>(offsets.size()) - 1;
  Matrix y = tape.NewMatrix(batch, xv.cols());
  std::vector<float> inv(static_cast<size_t>(batch), 0.0f);
  const bool parallel = SegmentMeanForward(y, xv, offsets, inv.data());
  TapeNode* xn = x.node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {xn},
      [xn, offs = std::move(offs), inv = std::move(inv),
       parallel](TapeNode& self) {
        ForEachSegment(
            self.grad.rows(), parallel, [&](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t b = b0; b < b1; ++b) {
                const float w = inv[static_cast<size_t>(b)];
                for (int i = offs[static_cast<size_t>(b)];
                     i < offs[static_cast<size_t>(b) + 1]; ++i) {
                  for (int j = 0; j < self.grad.cols(); ++j) {
                    xn->grad.at(i, j) +=
                        self.grad.at(static_cast<int>(b), j) * w;
                  }
                }
              }
            });
      },
      Replay{OpKind::kSegmentMean, 0.0f, offsets.data()});
}

Tensor SegmentMaxOp(Tape& tape, Tensor x, std::span<const int> offsets) {
  const Matrix& xv = x.value();
  CheckSegmentOffsets(xv, offsets, "SegmentMaxOp");
  const int batch = static_cast<int>(offsets.size()) - 1;
  Matrix y = tape.NewMatrix(batch, xv.cols());
  // argmax[b * cols + j] = row index of the max within segment b, column j.
  std::vector<int> argmax(static_cast<size_t>(batch) * xv.cols(), -1);
  const bool parallel = SegmentMaxForward(y, xv, offsets, argmax.data());
  TapeNode* xn = x.node();
  return tape.NewNode(
      std::move(y), {xn},
      [xn, argmax = std::move(argmax), parallel](TapeNode& self) {
        const int cols = self.grad.cols();
        ForEachSegment(
            self.grad.rows(), parallel, [&](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t b = b0; b < b1; ++b) {
                for (int j = 0; j < cols; ++j) {
                  const int r = argmax[static_cast<size_t>(b) * cols + j];
                  if (r >= 0) {
                    xn->grad.at(r, j) += self.grad.at(static_cast<int>(b), j);
                  }
                }
              }
            });
      },
      Replay{OpKind::kSegmentMax, 0.0f, offsets.data()});
}

Tensor BroadcastSegmentsOp(Tape& tape, Tensor x,
                           std::span<const int> offsets) {
  const Matrix& xv = x.value();
  const int batch = static_cast<int>(offsets.size()) - 1;
  if (batch != xv.rows()) {
    throw std::invalid_argument("BroadcastSegmentsOp: one row per segment");
  }
  CheckSegmentOffsetsFor(offsets.back(), offsets, "BroadcastSegmentsOp");
  Matrix y = tape.NewMatrixUninit(offsets.back(), xv.cols());
  BroadcastSegmentsForward(y, xv, offsets);
  TapeNode* xn = x.node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {xn},
      [xn, offs = std::move(offs)](TapeNode& self) {
        // d x[b] = the column sums of segment b's output gradient.
        Matrix sums(xn->grad.rows(), xn->grad.cols());
        SegmentSumForward(sums, self.grad, offs);
        AccumulateInto(xn->grad, sums);
      },
      Replay{OpKind::kBroadcastSegments, 0.0f, offsets.data()});
}

Tensor BlockDiagMatMulConstA(Tape& tape,
                             std::span<const EdgeList* const> blocks,
                             std::span<const int> offsets, Tensor x) {
  const Matrix& xv = x.value();
  CheckSegmentOffsets(xv, offsets, "BlockDiagMatMulConstA");
  if (blocks.size() + 1 != offsets.size()) {
    throw std::invalid_argument("BlockDiagMatMulConstA: blocks/offsets size");
  }
  Matrix y = tape.NewMatrix(xv.rows(), xv.cols());  // accumulated: keep zeroed
  const bool parallel = EdgeAggregateForward(y, blocks, offsets, xv);
  TapeNode* xn = x.node();
  std::vector<const EdgeList*> blocks_copy(blocks.begin(), blocks.end());
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {xn},
      [xn, blocks = std::move(blocks_copy), offs = std::move(offs),
       parallel](TapeNode& self) {
        EdgeAggregateBackward(xn->grad, blocks, offs, self.grad, parallel);
      },
      Replay{OpKind::kBlockAgg, 0.0f, blocks.front()});
}

// ---- Fused block-diagonal attention ----------------------------------------

namespace {

// Flat storage offsets for the per-segment [len_b, len_b] attention
// matrices: segment b's probabilities occupy [sq[b], sq[b+1]) row-major.
// (SquaredSegmentOffsetsInto / MaxSegmentLength live in nn/op_kernels.cpp,
// shared with the compiled-plan executor.)
std::vector<std::int64_t> SquaredOffsets(std::span<const int> offsets) {
  std::vector<std::int64_t> sq;
  SquaredSegmentOffsetsInto(offsets, sq);
  return sq;
}

}  // namespace

Tensor BlockDiagSelfAttentionOp(Tape& tape, Tensor q, Tensor k, Tensor v,
                                std::span<const int> offsets, float scale) {
  const Matrix& qv = q.value();
  const Matrix& kv = k.value();
  const Matrix& vv = v.value();
  CheckSegmentOffsets(qv, offsets, "BlockDiagSelfAttentionOp");
  if (!kv.same_shape(qv) || vv.rows() != qv.rows()) {
    throw std::invalid_argument("BlockDiagSelfAttentionOp: shape mismatch");
  }
  const int dim = qv.cols();
  const int vdim = vv.cols();
  const std::vector<std::int64_t> sq = SquaredOffsets(offsets);
  const int max_len = MaxSegmentLength(offsets);
  // The attention probabilities, saved for the backward on the tape itself
  // (arena-recycled) rather than in a closure capture.
  Matrix probs = tape.NewMatrixUninit(1, static_cast<int>(sq.back()));
  Matrix y = tape.NewMatrix(qv.rows(), vdim);
  const bool parallel = BlockDiagSelfAttentionForward(
      y, qv, kv, vv, offsets, sq, max_len, scale, probs.data());
  TapeNode* qn = q.node();
  TapeNode* kn = k.node();
  TapeNode* vn = v.node();
  TapeNode* probs_node = tape.Leaf(std::move(probs)).node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {qn, kn, vn},
      [qn, kn, vn, probs_node, offs = std::move(offs), sq, max_len, scale,
       parallel, dim, vdim](TapeNode& self) {
        // Per segment: dP = G v^T, softmax backward, then dq/dk/dv — all
        // row-streamed, so nothing is materialized beyond two len-sized
        // scratch rows per chunk. Segments touch disjoint grad rows of
        // every operand, so the sharding is bit-exact at any pool width.
        ForEachSegment(
            static_cast<int>(offs.size()) - 1, parallel,
            [&](std::int64_t b0, std::int64_t b1) {
              std::vector<float> dp(static_cast<size_t>(max_len));
              std::vector<float> ds(static_cast<size_t>(max_len));
              for (std::int64_t b = b0; b < b1; ++b) {
                const int begin = offs[static_cast<size_t>(b)];
                const int len = offs[static_cast<size_t>(b) + 1] - begin;
                const float* __restrict p_seg =
                    probs_node->value.data() + sq[static_cast<size_t>(b)];
                for (int i = 0; i < len; ++i) {
                  const float* __restrict gi =
                      self.grad.data() + static_cast<size_t>(begin + i) * vdim;
                  const float* __restrict pi =
                      p_seg + static_cast<std::int64_t>(i) * len;
                  // dP_i[j] = G_i . v_j
                  for (int j = 0; j < len; ++j) {
                    const float* __restrict vj =
                        vn->value.data() +
                        static_cast<size_t>(begin + j) * vdim;
                    float acc = 0.0f;
                    for (int c = 0; c < vdim; ++c) acc += gi[c] * vj[c];
                    dp[static_cast<size_t>(j)] = acc;
                  }
                  // Softmax backward (same double-precision row dot as
                  // MaskedSoftmaxRowsOp's closure).
                  double dot = 0;
                  for (int j = 0; j < len; ++j) {
                    dot += static_cast<double>(dp[static_cast<size_t>(j)]) *
                           pi[j];
                  }
                  for (int j = 0; j < len; ++j) {
                    ds[static_cast<size_t>(j)] =
                        pi[j] * (dp[static_cast<size_t>(j)] -
                                 static_cast<float>(dot));
                  }
                  if (qn->requires_grad) {
                    float* __restrict dqi =
                        qn->grad.data() + static_cast<size_t>(begin + i) * dim;
                    for (int j = 0; j < len; ++j) {
                      const float w = scale * ds[static_cast<size_t>(j)];
                      if (w == 0.0f) continue;
                      const float* __restrict kj =
                          kn->value.data() +
                          static_cast<size_t>(begin + j) * dim;
                      for (int c = 0; c < dim; ++c) dqi[c] += w * kj[c];
                    }
                  }
                  if (kn->requires_grad) {
                    const float* __restrict qi =
                        qn->value.data() + static_cast<size_t>(begin + i) * dim;
                    for (int j = 0; j < len; ++j) {
                      const float w = scale * ds[static_cast<size_t>(j)];
                      if (w == 0.0f) continue;
                      float* __restrict dkj =
                          kn->grad.data() +
                          static_cast<size_t>(begin + j) * dim;
                      for (int c = 0; c < dim; ++c) dkj[c] += w * qi[c];
                    }
                  }
                  if (vn->requires_grad) {
                    for (int j = 0; j < len; ++j) {
                      const float pij = pi[j];
                      if (pij == 0.0f) continue;
                      float* __restrict dvj =
                          vn->grad.data() +
                          static_cast<size_t>(begin + j) * vdim;
                      for (int c = 0; c < vdim; ++c) dvj[c] += pij * gi[c];
                    }
                  }
                }
              }
            });
      },
      Replay{OpKind::kSelfAttention, scale, offsets.data()});
}

Tensor BlockDiagGatAttentionOp(Tape& tape, Tensor s, Tensor d, Tensor wh,
                               std::span<const Matrix* const> masks,
                               std::span<const int> offsets, float alpha) {
  const Matrix& sv = s.value();
  const Matrix& dv = d.value();
  const Matrix& whv = wh.value();
  CheckSegmentOffsets(whv, offsets, "BlockDiagGatAttentionOp");
  if (masks.size() + 1 != offsets.size()) {
    throw std::invalid_argument("BlockDiagGatAttentionOp: masks/offsets size");
  }
  if (sv.cols() != 1 || dv.cols() != 1 || sv.rows() != whv.rows() ||
      dv.rows() != whv.rows()) {
    throw std::invalid_argument(
        "BlockDiagGatAttentionOp: s/d must be [N, 1] logit columns");
  }
  const int batch = static_cast<int>(masks.size());
  const int dim = whv.cols();
  for (int b = 0; b < batch; ++b) {
    const int len = offsets[static_cast<size_t>(b) + 1] -
                    offsets[static_cast<size_t>(b)];
    const Matrix& m = *masks[static_cast<size_t>(b)];
    if (m.rows() != len || m.cols() != len) {
      throw std::invalid_argument("BlockDiagGatAttentionOp: mask shape");
    }
  }
  const std::vector<std::int64_t> sq = SquaredOffsets(offsets);
  const int max_len = MaxSegmentLength(offsets);
  Matrix probs = tape.NewMatrixUninit(1, static_cast<int>(sq.back()));
  Matrix y = tape.NewMatrix(whv.rows(), dim);
  const bool parallel = BlockDiagGatAttentionForward(
      y, sv, dv, whv, masks, offsets, sq, max_len, alpha, probs.data());
  TapeNode* sn = s.node();
  TapeNode* dn = d.node();
  TapeNode* whn = wh.node();
  TapeNode* probs_node = tape.Leaf(std::move(probs)).node();
  std::vector<int> offs(offsets.begin(), offsets.end());
  return tape.NewNode(
      std::move(y), {sn, dn, whn},
      [sn, dn, whn, probs_node, offs = std::move(offs), sq, max_len, alpha,
       parallel, dim](TapeNode& self) {
        // Per row: dP = G wh^T, masked softmax backward, LeakyReLU backward
        // (the pre-activation sign is recomputed from the s/d parent values
        // — nothing else is saved), then the OuterSum row/column sums.
        // Segments touch disjoint grad rows of s, d, and wh.
        ForEachSegment(
            static_cast<int>(offs.size()) - 1, parallel,
            [&](std::int64_t b0, std::int64_t b1) {
              std::vector<float> dp(static_cast<size_t>(max_len));
              std::vector<float> dz(static_cast<size_t>(max_len));
              for (std::int64_t b = b0; b < b1; ++b) {
                const int begin = offs[static_cast<size_t>(b)];
                const int len = offs[static_cast<size_t>(b) + 1] - begin;
                const float* __restrict p_seg =
                    probs_node->value.data() + sq[static_cast<size_t>(b)];
                for (int i = 0; i < len; ++i) {
                  const float* __restrict gi =
                      self.grad.data() + static_cast<size_t>(begin + i) * dim;
                  const float* __restrict pi =
                      p_seg + static_cast<std::int64_t>(i) * len;
                  // dP_i[j] = G_i . wh_j (only where P is non-zero; zero
                  // probabilities contribute nothing downstream).
                  for (int j = 0; j < len; ++j) {
                    if (pi[j] == 0.0f) {
                      dp[static_cast<size_t>(j)] = 0.0f;
                      continue;
                    }
                    const float* __restrict whj =
                        whn->value.data() +
                        static_cast<size_t>(begin + j) * dim;
                    float acc = 0.0f;
                    for (int c = 0; c < dim; ++c) acc += gi[c] * whj[c];
                    dp[static_cast<size_t>(j)] = acc;
                  }
                  double dot = 0;
                  for (int j = 0; j < len; ++j) {
                    dot += static_cast<double>(dp[static_cast<size_t>(j)]) *
                           pi[j];
                  }
                  const float si = sn->value.at(begin + i, 0);
                  float dsi = 0.0f;
                  for (int j = 0; j < len; ++j) {
                    const float dl =
                        pi[j] * (dp[static_cast<size_t>(j)] -
                                 static_cast<float>(dot));
                    const float z = si + dn->value.at(begin + j, 0);
                    const float g = dl * (z > 0 ? 1.0f : alpha);
                    dz[static_cast<size_t>(j)] = g;
                    dsi += g;
                  }
                  if (sn->requires_grad) sn->grad.at(begin + i, 0) += dsi;
                  if (dn->requires_grad) {
                    for (int j = 0; j < len; ++j) {
                      dn->grad.at(begin + j, 0) += dz[static_cast<size_t>(j)];
                    }
                  }
                  if (whn->requires_grad) {
                    for (int j = 0; j < len; ++j) {
                      const float pij = pi[j];
                      if (pij == 0.0f) continue;
                      float* __restrict dwhj =
                          whn->grad.data() +
                          static_cast<size_t>(begin + j) * dim;
                      for (int c = 0; c < dim; ++c) dwhj[c] += pij * gi[c];
                    }
                  }
                }
              }
            });
      },
      Replay{OpKind::kGatAttention, alpha, masks.front()});
}

Tensor ColSumOp(Tape& tape, Tensor x) {
  Matrix y = ColSum(x.value());
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn}, [xn](TapeNode& self) {
    for (int i = 0; i < xn->grad.rows(); ++i) {
      for (int j = 0; j < xn->grad.cols(); ++j) {
        xn->grad.at(i, j) += self.grad.at(0, j);
      }
    }
  });
}

Tensor ColMeanOp(Tape& tape, Tensor x) {
  Matrix y = ColMean(x.value());
  TapeNode* xn = x.node();
  const float inv = x.rows() > 0 ? 1.0f / static_cast<float>(x.rows()) : 0.0f;
  return tape.NewNode(std::move(y), {xn}, [xn, inv](TapeNode& self) {
    for (int i = 0; i < xn->grad.rows(); ++i) {
      for (int j = 0; j < xn->grad.cols(); ++j) {
        xn->grad.at(i, j) += self.grad.at(0, j) * inv;
      }
    }
  });
}

Tensor ColMaxOp(Tape& tape, Tensor x) {
  std::vector<int> argmax;
  Matrix y = ColMax(x.value(), &argmax);
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn},
                      [xn, argmax = std::move(argmax)](TapeNode& self) {
                        for (int j = 0; j < self.grad.cols(); ++j) {
                          xn->grad.at(argmax[static_cast<size_t>(j)], j) +=
                              self.grad.at(0, j);
                        }
                      });
}

Tensor SumAllOp(Tape& tape, Tensor x) {
  Matrix y(1, 1);
  double acc = 0;
  for (const float v : x.value().flat()) acc += v;
  y.at(0, 0) = static_cast<float>(acc);
  TapeNode* xn = x.node();
  return tape.NewNode(std::move(y), {xn}, [xn](TapeNode& self) {
    const float g = self.grad.at(0, 0);
    for (float& v : xn->grad.flat()) v += g;
  });
}

Tensor MeanAllOp(Tape& tape, Tensor x) {
  const float inv =
      x.value().size() > 0 ? 1.0f / static_cast<float>(x.value().size()) : 0.0f;
  Tensor s = SumAllOp(tape, x);
  Matrix y(1, 1);
  y.at(0, 0) = s.value().at(0, 0) * inv;
  TapeNode* sn = s.node();
  return tape.NewNode(std::move(y), {sn}, [sn, inv](TapeNode& self) {
    sn->grad.at(0, 0) += self.grad.at(0, 0) * inv;
  });
}

Tensor GatherRowsOp(Tape& tape, Tensor table, std::span<const int> ids) {
  const Matrix& tv = table.value();
  Matrix y = tape.NewMatrixUninit(static_cast<int>(ids.size()), tv.cols());
  GatherRowsForward(y, tv, ids);
  TapeNode* tn = table.node();
  std::vector<int> ids_copy(ids.begin(), ids.end());
  return tape.NewNode(
      std::move(y), {tn},
      [tn, ids = std::move(ids_copy)](TapeNode& self) {
        for (size_t i = 0; i < ids.size(); ++i) {
          for (int j = 0; j < self.grad.cols(); ++j) {
            tn->grad.at(ids[i], j) += self.grad.at(static_cast<int>(i), j);
          }
        }
      },
      Replay{OpKind::kGatherEmbed, 0.0f, ids.data()});
}

Tensor OuterSumOp(Tape& tape, Tensor a, Tensor b) {
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  if (av.cols() != 1 || bv.cols() != 1) {
    throw std::invalid_argument("OuterSumOp: expects column vectors");
  }
  Matrix y = tape.NewMatrixUninit(av.rows(), bv.rows());
  for (int i = 0; i < av.rows(); ++i) {
    for (int j = 0; j < bv.rows(); ++j) {
      y.at(i, j) = av.at(i, 0) + bv.at(j, 0);
    }
  }
  TapeNode* an = a.node();
  TapeNode* bn = b.node();
  return tape.NewNode(std::move(y), {an, bn}, [an, bn](TapeNode& self) {
    if (an->requires_grad) {
      for (int i = 0; i < self.grad.rows(); ++i) {
        float acc = 0;
        for (int j = 0; j < self.grad.cols(); ++j) acc += self.grad.at(i, j);
        an->grad.at(i, 0) += acc;
      }
    }
    if (bn->requires_grad) {
      for (int j = 0; j < self.grad.cols(); ++j) {
        float acc = 0;
        for (int i = 0; i < self.grad.rows(); ++i) acc += self.grad.at(i, j);
        bn->grad.at(j, 0) += acc;
      }
    }
  });
}

}  // namespace tpuperf::nn
