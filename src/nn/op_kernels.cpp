#include "nn/op_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/thread_pool.h"
#include "nn/fastmath.h"
#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

// Work (in multiply-adds / transcendental evaluations) below which an op
// runs serially: fork/join overhead beats the parallel win under this.
constexpr std::int64_t kParallelOpWork = 1 << 18;

// Grow-only thread_local scratch row: steady-state replay (and the warm tape
// path) performs zero heap allocations for per-row workspaces.
std::vector<float>& ScratchRow(size_t min_size) {
  static thread_local std::vector<float> scratch;
  if (scratch.size() < min_size) scratch.resize(min_size);
  return scratch;
}

}  // namespace

bool UseParallelOpWork(std::int64_t work) {
  return work >= kParallelOpWork && core::ThreadPool::Global().size() > 1;
}

void CheckSegmentOffsetsFor(int rows, std::span<const int> offsets,
                            const char* op) {
  if (offsets.size() < 2 || offsets.front() != 0 || offsets.back() != rows) {
    throw std::invalid_argument(std::string(op) + ": bad segment offsets");
  }
  for (size_t b = 1; b < offsets.size(); ++b) {
    if (offsets[b] < offsets[b - 1]) {
      throw std::invalid_argument(std::string(op) + ": offsets not monotone");
    }
  }
}

void SquaredSegmentOffsetsInto(std::span<const int> offsets,
                               std::vector<std::int64_t>& sq) {
  sq.resize(offsets.size());
  sq[0] = 0;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const std::int64_t len = offsets[b + 1] - offsets[b];
    sq[b + 1] = sq[b] + len * len;
  }
  // The saved probabilities pack into one Matrix row, so the sum of
  // squared segment lengths must stay indexable by int.
  if (sq.back() > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(
        "block-diagonal attention: sum of squared segment lengths exceeds "
        "INT_MAX; split the batch");
  }
}

int MaxSegmentLength(std::span<const int> offsets) {
  int max_len = 0;
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    max_len = std::max(max_len, offsets[b + 1] - offsets[b]);
  }
  return max_len;
}

void RowL2NormalizeForward(Matrix& y, const Matrix& x, float eps,
                           float* inv_norms) {
  const int cols = x.cols();
  for (int i = 0; i < x.rows(); ++i) {
    const float* xi = x.data() + static_cast<size_t>(i) * cols;
    const float sq = simd::Dot(xi, xi, static_cast<size_t>(cols));
    const float inv = 1.0f / (std::sqrt(sq) + eps);
    if (inv_norms != nullptr) inv_norms[static_cast<size_t>(i)] = inv;
    float* yi = y.data() + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) yi[j] = xi[j] * inv;
  }
}

void LayerNormRowsForward(Matrix& y, const Matrix& x, const Matrix& gamma,
                          const Matrix& beta, float eps, Matrix* xhat,
                          float* inv_std) {
  const int n = x.rows(), c = x.cols();
  for (int i = 0; i < n; ++i) {
    double mean = 0;
    for (int j = 0; j < c; ++j) mean += x.at(i, j);
    mean /= c;
    double var = 0;
    for (int j = 0; j < c; ++j) {
      const double d = x.at(i, j) - mean;
      var += d * d;
    }
    var /= c;
    const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    if (inv_std != nullptr) inv_std[static_cast<size_t>(i)] = istd;
    // xhat is computed and consumed as float either way, so fusing the
    // normalize and affine passes is bit-identical to materializing xhat.
    for (int j = 0; j < c; ++j) {
      const float xh = (x.at(i, j) - static_cast<float>(mean)) * istd;
      if (xhat != nullptr) xhat->at(i, j) = xh;
      y.at(i, j) = xh * gamma.at(0, j) + beta.at(0, j);
    }
  }
}

bool SegmentSumForward(Matrix& y, const Matrix& x,
                       std::span<const int> offsets) {
  const int batch = static_cast<int>(offsets.size()) - 1;
  const bool parallel =
      batch > 1 && UseParallelOpWork(static_cast<std::int64_t>(x.size()));
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (int i = offsets[static_cast<size_t>(b)];
           i < offsets[static_cast<size_t>(b) + 1]; ++i) {
        for (int j = 0; j < x.cols(); ++j) {
          y.at(static_cast<int>(b), j) += x.at(i, j);
        }
      }
    }
  });
  return parallel;
}

bool SegmentMeanForward(Matrix& y, const Matrix& x,
                        std::span<const int> offsets, float* inv) {
  const int batch = static_cast<int>(offsets.size()) - 1;
  const bool parallel =
      batch > 1 && UseParallelOpWork(static_cast<std::int64_t>(x.size()));
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const int len = offsets[static_cast<size_t>(b) + 1] -
                      offsets[static_cast<size_t>(b)];
      if (len == 0) continue;
      const float w = 1.0f / static_cast<float>(len);
      if (inv != nullptr) inv[static_cast<size_t>(b)] = w;
      for (int i = offsets[static_cast<size_t>(b)];
           i < offsets[static_cast<size_t>(b) + 1]; ++i) {
        for (int j = 0; j < x.cols(); ++j) {
          y.at(static_cast<int>(b), j) += x.at(i, j);
        }
      }
      for (int j = 0; j < x.cols(); ++j) y.at(static_cast<int>(b), j) *= w;
    }
  });
  return parallel;
}

bool SegmentMaxForward(Matrix& y, const Matrix& x,
                       std::span<const int> offsets, int* argmax) {
  const int batch = static_cast<int>(offsets.size()) - 1;
  const bool parallel =
      batch > 1 && UseParallelOpWork(static_cast<std::int64_t>(x.size()));
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const int begin = offsets[static_cast<size_t>(b)];
      const int end = offsets[static_cast<size_t>(b) + 1];
      for (int j = 0; j < x.cols(); ++j) {
        float best = begin < end ? x.at(begin, j) : 0.0f;
        int best_row = begin < end ? begin : -1;
        for (int i = begin + 1; i < end; ++i) {
          if (x.at(i, j) > best) {
            best = x.at(i, j);
            best_row = i;
          }
        }
        y.at(static_cast<int>(b), j) = best;
        if (argmax != nullptr) {
          argmax[static_cast<size_t>(b) * x.cols() + j] = best_row;
        }
      }
    }
  });
  return parallel;
}

bool EdgeAggregateForward(Matrix& y, std::span<const EdgeList* const> blocks,
                          std::span<const int> offsets, const Matrix& x) {
  const int batch = static_cast<int>(blocks.size());
  std::int64_t edge_flops = 0;
  for (int b = 0; b < batch; ++b) {
    const EdgeList& a = *blocks[static_cast<size_t>(b)];
    if (a.rows() != offsets[static_cast<size_t>(b) + 1] -
                        offsets[static_cast<size_t>(b)]) {
      throw std::invalid_argument(
          "BlockDiagMatMulConstA: block shape mismatch");
    }
    edge_flops += 2ll * static_cast<std::int64_t>(a.col.size()) * x.cols();
  }
  const bool parallel = batch > 1 && UseParallelOpWork(edge_flops);
  const int cols = x.cols();
  // y[begin+i, :] += w * x[begin+k, :] over row i's edges, ascending k.
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const EdgeList& a = *blocks[static_cast<size_t>(b)];
      const int begin = offsets[static_cast<size_t>(b)];
      for (int i = 0; i < a.rows(); ++i) {
        float* __restrict yi = y.data() + static_cast<size_t>(begin + i) * cols;
        for (int e = a.row_begin[static_cast<size_t>(i)];
             e < a.row_begin[static_cast<size_t>(i) + 1]; ++e) {
          const float w = a.weight[static_cast<size_t>(e)];
          const float* __restrict xk =
              x.data() +
              static_cast<size_t>(begin + a.col[static_cast<size_t>(e)]) * cols;
          for (int j = 0; j < cols; ++j) {
            yi[j] = simd::MulAdd(w, xk[j], yi[j]);
          }
        }
      }
    }
  });
  return parallel;
}

void EdgeAggregateBackward(Matrix& dx, std::span<const EdgeList* const> blocks,
                           std::span<const int> offsets, const Matrix& dy,
                           bool parallel) {
  const int batch = static_cast<int>(blocks.size());
  const int cols = dy.cols();
  // dx[begin+k, :] += w * dy[begin+i, :]: each block scatters only into its
  // own row segment — same sharding as the forward pass.
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const EdgeList& a = *blocks[static_cast<size_t>(b)];
      const int begin = offsets[static_cast<size_t>(b)];
      for (int i = 0; i < a.rows(); ++i) {
        const float* __restrict dyi =
            dy.data() + static_cast<size_t>(begin + i) * cols;
        for (int e = a.row_begin[static_cast<size_t>(i)];
             e < a.row_begin[static_cast<size_t>(i) + 1]; ++e) {
          const float w = a.weight[static_cast<size_t>(e)];
          float* __restrict dxk =
              dx.data() +
              static_cast<size_t>(begin + a.col[static_cast<size_t>(e)]) * cols;
          for (int j = 0; j < cols; ++j) {
            dxk[j] = simd::MulAdd(w, dyi[j], dxk[j]);
          }
        }
      }
    }
  });
}

bool BlockDiagSelfAttentionForward(Matrix& y, const Matrix& q,
                                   const Matrix& k, const Matrix& v,
                                   std::span<const int> offsets,
                                   std::span<const std::int64_t> sq,
                                   int max_len, float scale, float* probs) {
  const int batch = static_cast<int>(offsets.size()) - 1;
  const int dim = q.cols();
  const int vdim = v.cols();
  const bool parallel =
      batch > 1 && UseParallelOpWork(sq.back() * (2ll * dim + vdim));
  // Per segment and row: logits, softmax, then the value reduction — the
  // same float sequence as MatMul/Scale/SoftmaxRows/MatMul per segment, so
  // outputs are row-for-row identical to the unfused op chain. Segments
  // write disjoint output rows (bit-exact sharding at any pool width).
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float>& srow = ScratchRow(static_cast<size_t>(max_len));
    for (std::int64_t b = b0; b < b1; ++b) {
      const int begin = offsets[static_cast<size_t>(b)];
      const int len = offsets[static_cast<size_t>(b) + 1] - begin;
      float* __restrict p_seg =
          probs != nullptr ? probs + sq[static_cast<size_t>(b)] : nullptr;
      for (int i = 0; i < len; ++i) {
        const float* __restrict qi =
            q.data() + static_cast<size_t>(begin + i) * dim;
        // Scaled dot-product logits (ascending-p dots, as MatMul computes).
        for (int j = 0; j < len; ++j) {
          const float* __restrict kj =
              k.data() + static_cast<size_t>(begin + j) * dim;
          float acc = 0.0f;
          for (int p = 0; p < dim; ++p) acc += qi[p] * kj[p];
          srow[static_cast<size_t>(j)] = acc * scale;
        }
        // Row softmax, exactly as MaskedSoftmaxRowsOp with no entry masked.
        float max_v = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < len; ++j) {
          max_v = std::max(max_v, srow[static_cast<size_t>(j)]);
        }
        double denom = 0;
        for (int j = 0; j < len; ++j) {
          const float e = std::exp(srow[static_cast<size_t>(j)] - max_v);
          srow[static_cast<size_t>(j)] = e;
          denom += e;
        }
        if (denom > 0) {
          const float inv = 1.0f / static_cast<float>(denom);
          for (int j = 0; j < len; ++j) srow[static_cast<size_t>(j)] *= inv;
        }
        if (p_seg != nullptr) {
          std::copy(srow.begin(), srow.begin() + len,
                    p_seg + static_cast<std::int64_t>(i) * len);
        }
        // y_i = sum_j P_ij v_j (ascending j, as the MatMul row kernel).
        float* __restrict yi = y.data() + static_cast<size_t>(begin + i) * vdim;
        for (int j = 0; j < len; ++j) {
          const float pij = srow[static_cast<size_t>(j)];
          if (pij == 0.0f) continue;
          const float* __restrict vj =
              v.data() + static_cast<size_t>(begin + j) * vdim;
          for (int c = 0; c < vdim; ++c) yi[c] += pij * vj[c];
        }
      }
    }
  });
  return parallel;
}

bool BlockDiagGatAttentionForward(Matrix& y, const Matrix& s, const Matrix& d,
                                  const Matrix& wh,
                                  std::span<const Matrix* const> masks,
                                  std::span<const int> offsets,
                                  std::span<const std::int64_t> sq,
                                  int max_len, float alpha, float* probs) {
  const int batch = static_cast<int>(masks.size());
  const int dim = wh.cols();
  const bool parallel = batch > 1 && UseParallelOpWork(sq.back() * (dim + 8ll));
  // Per segment and row: masked LeakyReLU(s_i + d_j) logits, masked softmax
  // (the exact float sequence of OuterSum/LeakyRelu/MaskedSoftmaxRows), then
  // the attention-weighted neighbor sum. Disjoint rows per segment.
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    std::vector<float>& lrow = ScratchRow(static_cast<size_t>(max_len));
    for (std::int64_t b = b0; b < b1; ++b) {
      const int begin = offsets[static_cast<size_t>(b)];
      const int len = offsets[static_cast<size_t>(b) + 1] - begin;
      const Matrix& mask = *masks[static_cast<size_t>(b)];
      float* __restrict p_seg =
          probs != nullptr ? probs + sq[static_cast<size_t>(b)] : nullptr;
      for (int i = 0; i < len; ++i) {
        const float si = s.at(begin + i, 0);
        float max_v = -std::numeric_limits<float>::infinity();
        for (int j = 0; j < len; ++j) {
          if (mask.at(i, j) == 0.0f) continue;
          const float z = si + d.at(begin + j, 0);
          const float l = z > 0 ? z : alpha * z;
          lrow[static_cast<size_t>(j)] = l;
          max_v = std::max(max_v, l);
        }
        double denom = 0;
        for (int j = 0; j < len; ++j) {
          if (mask.at(i, j) == 0.0f) {
            lrow[static_cast<size_t>(j)] = 0.0f;
            continue;
          }
          const float e = std::exp(lrow[static_cast<size_t>(j)] - max_v);
          lrow[static_cast<size_t>(j)] = e;
          denom += e;
        }
        if (denom > 0) {
          const float inv = 1.0f / static_cast<float>(denom);
          for (int j = 0; j < len; ++j) lrow[static_cast<size_t>(j)] *= inv;
        }
        if (p_seg != nullptr) {
          std::copy(lrow.begin(), lrow.begin() + len,
                    p_seg + static_cast<std::int64_t>(i) * len);
        }
        // y_i = sum_j P_ij wh_j, skipping the masked (zero) weights.
        float* __restrict yi = y.data() + static_cast<size_t>(begin + i) * dim;
        for (int j = 0; j < len; ++j) {
          const float pij = lrow[static_cast<size_t>(j)];
          if (pij == 0.0f) continue;
          const float* __restrict whj =
              wh.data() + static_cast<size_t>(begin + j) * dim;
          for (int c = 0; c < dim; ++c) yi[c] += pij * whj[c];
        }
      }
    }
  });
  return parallel;
}

namespace {

// The gate activations and the new c and h rows of one LSTM step, from
// `act` holding the step's pre-activations (replaced in place by the gate
// activations). c_in may alias c_out: c is updated elementwise.
void LstmGates(float* act, const float* c_in, int hidden, float* h_out,
               float* c_out, float* tanh_c) {
  const int n = 4 * hidden;
  // Activations in contiguous per-gate runs, so the loops vectorize.
  for (int j = 0; j < 2 * hidden; ++j) act[j] = FastSigmoid(act[j]);
  for (int j = 2 * hidden; j < 3 * hidden; ++j) act[j] = FastTanh(act[j]);
  for (int j = 3 * hidden; j < n; ++j) act[j] = FastSigmoid(act[j]);
  for (int j = 0; j < hidden; ++j) {
    c_out[j] = act[hidden + j] * c_in[j] + act[j] * act[2 * hidden + j];
  }
  for (int j = 0; j < hidden; ++j) {
    const float t = FastTanh(c_out[j]);
    h_out[j] = act[3 * hidden + j] * t;
    if (tanh_c != nullptr) tanh_c[j] = t;
  }
}

// One BPTT step of one node: the gate pre-activation gradients `dp` from
// the carried dh and dc rows and the step's trace (gate activations `g`,
// tanh(c) `tc`, the state `cp` the step read); dc is carried in place.
void LstmGateGrads(const float* __restrict g, const float* __restrict tc,
                   const float* __restrict cp, int hidden,
                   const float* __restrict dh, float* __restrict dc,
                   float* __restrict dp) {
  for (int j = 0; j < hidden; ++j) {
    const float i_g = g[j], f_g = g[hidden + j];
    const float g_g = g[2 * hidden + j], o_g = g[3 * hidden + j];
    const float t = tc[j];
    // dc combines the h path (through tanh) and the carried c grad.
    const float dcj = dh[j] * o_g * (1.0f - t * t) + dc[j];
    dp[j] = dcj * g_g * i_g * (1.0f - i_g);
    dp[hidden + j] = dcj * cp[j] * f_g * (1.0f - f_g);
    dp[2 * hidden + j] = dcj * i_g * (1.0f - g_g * g_g);
    dp[3 * hidden + j] = dh[j] * t * o_g * (1.0f - o_g);
    dc[j] = dcj * f_g;
  }
}

// Grow-only thread_local row pointers for the lockstep LSTM tiles: `count`
// left-operand rows followed by `count` output rows.
float** ScratchRowPointers(size_t count) {
  static thread_local std::vector<float*> pointers;
  if (pointers.size() < 2 * count) pointers.resize(2 * count);
  return pointers.data();
}

}  // namespace

bool LstmSequenceForward(Matrix& h_final, const Matrix& xw, const Matrix& w_h,
                         const Matrix& bias, std::span<const int> offsets,
                         const LstmTrace* trace) {
  const int hidden = w_h.rows();
  const int batch = static_cast<int>(offsets.size()) - 1;
  CheckSegmentOffsetsFor(xw.rows(), offsets, "LstmSequence");
  if (w_h.cols() != 4 * hidden || xw.cols() != 4 * hidden ||
      bias.rows() != 1 || bias.cols() != 4 * hidden ||
      h_final.rows() != batch || h_final.cols() != hidden) {
    throw std::invalid_argument("LstmSequence: shape mismatch");
  }
  for (int b = 0; b < batch; ++b) {
    if (offsets[static_cast<size_t>(b) + 1] ==
        offsets[static_cast<size_t>(b)]) {
      throw std::invalid_argument("LstmSequence: empty segment");
    }
  }
  const size_t h = static_cast<size_t>(hidden);
  const int n = 4 * hidden;
  const bool parallel =
      batch > 1 && UseParallelOpWork(static_cast<std::int64_t>(xw.rows()) *
                                     4 * hidden * (hidden + 10));
  const auto [w_panel, ldw] =
      simd::PackedPanel(w_h.data(), w_h.cols(), hidden, n, false);
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    const int segs = static_cast<int>(b1 - b0);
    // Per segment: the untraced h and c state rows, the gate row, and the
    // traced run's final c row.
    float* state = ScratchRow(6 * h * static_cast<size_t>(segs)).data();
    float** rows = ScratchRowPointers(static_cast<size_t>(segs));
    // Where segment s's step t reads and writes its state. Untraced, the
    // state rows update in place; traced, each step reads its own
    // h_prev/c_prev rows and writes the next step's. The last step's h goes
    // to h_final.
    struct StepRows {
      float *h_in, *c_in, *act, *h_out, *c_out, *tanh_c;
    };
    const auto step_rows = [&](int s, int t) {
      const size_t b = static_cast<size_t>(b0 + s);
      const size_t i = static_cast<size_t>(offsets[b] + t);
      const bool last = offsets[b] + t + 1 == offsets[b + 1];
      float* hs = state + static_cast<size_t>(s) * 6 * h;
      float* out = h_final.data() + b * h;
      if (trace == nullptr) {
        return StepRows{hs, hs + h, hs + 2 * h, last ? out : hs, hs + h,
                        nullptr};
      }
      float* hp = trace->h_prev->data();
      float* cp = trace->c_prev->data();
      return StepRows{hp + i * h,
                      cp + i * h,
                      trace->gates->data() + i * 4 * h,
                      last ? out : hp + (i + 1) * h,
                      last ? hs + h : cp + (i + 1) * h,
                      trace->tanh_c->data() + i * h};
    };
    for (int s = 0; s < segs; ++s) {
      const StepRows r = step_rows(s, 0);
      std::fill(r.h_in, r.h_in + h, 0.0f);
      std::fill(r.c_in, r.c_in + h, 0.0f);
    }
    const int max_len = MaxSegmentLength(offsets.subspan(
        static_cast<size_t>(b0), static_cast<size_t>(segs) + 1));
    for (int t = 0; t < max_len; ++t) {
      // pre = (xw[i] + bias) + h_in @ w_h for every live segment: one tile
      // product whose elements are each one MulAdd chain from zero over
      // ascending p, added onto the input projection.
      int live = 0;
      for (int s = 0; s < segs; ++s) {
        const size_t b = static_cast<size_t>(b0 + s);
        if (offsets[b] + t >= offsets[b + 1]) continue;
        const StepRows r = step_rows(s, t);
        const float* xw_row =
            xw.data() + static_cast<size_t>(offsets[b] + t) * n;
        for (int j = 0; j < n; ++j) r.act[j] = xw_row[j] + bias.data()[j];
        rows[live] = r.h_in;
        rows[segs + live] = r.act;
        ++live;
      }
      simd::MulAddRows<true>(rows, 1, w_panel, ldw, hidden, n, rows + segs,
                             live);
      for (int s = 0; s < segs; ++s) {
        const size_t b = static_cast<size_t>(b0 + s);
        if (offsets[b] + t >= offsets[b + 1]) continue;
        const StepRows r = step_rows(s, t);
        LstmGates(r.act, r.c_in, hidden, r.h_out, r.c_out, r.tanh_c);
      }
    }
  }, simd::kTileRows);
  return parallel;
}

void LstmSequenceBackward(Matrix& dpre, const Matrix& dh_final,
                          const Matrix& w_h, std::span<const int> offsets,
                          const LstmTrace& trace, bool parallel) {
  const int hidden = w_h.rows();
  const size_t h = static_cast<size_t>(hidden);
  const int n = 4 * hidden;
  // dh_prev = dpre @ w_h^T: the transposed panel is [4h, h].
  const auto [wt_panel, ldwt] =
      simd::PackedPanel(w_h.data(), w_h.cols(), n, hidden, true);
  const int batch = static_cast<int>(offsets.size()) - 1;
  ForEachSegment(batch, parallel, [&](std::int64_t b0, std::int64_t b1) {
    const int segs = static_cast<int>(b1 - b0);
    // Per segment: the carried dh and dc rows.
    float* state = ScratchRow(2 * h * static_cast<size_t>(segs)).data();
    float** rows = ScratchRowPointers(static_cast<size_t>(segs));
    for (int s = 0; s < segs; ++s) {
      const float* dout = dh_final.data() + static_cast<size_t>(b0 + s) * h;
      float* dh = state + static_cast<size_t>(s) * 2 * h;
      std::copy(dout, dout + h, dh);
      std::fill(dh + h, dh + 2 * h, 0.0f);
    }
    const int max_len = MaxSegmentLength(offsets.subspan(
        static_cast<size_t>(b0), static_cast<size_t>(segs) + 1));
    // Step u runs node end - 1 - u of every segment that long.
    for (int u = 0; u < max_len; ++u) {
      int live = 0;
      for (int s = 0; s < segs; ++s) {
        const size_t b = static_cast<size_t>(b0 + s);
        const int i = offsets[b + 1] - 1 - u;
        if (i < offsets[b]) continue;
        float* dh = state + static_cast<size_t>(s) * 2 * h;
        float* dp = dpre.data() + i * 4 * h;
        LstmGateGrads(trace.gates->data() + i * 4 * h,
                      trace.tanh_c->data() + i * h,
                      trace.c_prev->data() + i * h, hidden, dh, dh + h, dp);
        // The zero initial state takes no gradient.
        if (i == offsets[b]) continue;
        rows[live] = dp;
        rows[segs + live] = dh;
        ++live;
      }
      // dh_prev = dpre[i] @ w_h^T into dh (fully consumed above): each
      // element one MulAdd chain from zero over ascending gate column.
      simd::MulAddRows<false>(rows, 1, wt_panel, ldwt, n, hidden, rows + segs,
                              live);
    }
  }, simd::kTileRows);
}

void GatherRowsForward(Matrix& y, const Matrix& table,
                       std::span<const int> ids, int col_off) {
  for (size_t i = 0; i < ids.size(); ++i) {
    const int r = ids[i];
    if (r < 0 || r >= table.rows()) {
      throw std::out_of_range("GatherRowsOp: id out of range");
    }
    const auto src = table.row(r);
    std::copy(src.begin(), src.end(),
              y.row(static_cast<int>(i)).begin() + col_off);
  }
}

void AddRowBroadcastForward(Matrix& y, const Matrix& x, const Matrix& bias) {
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) y.at(i, j) = x.at(i, j) + bias.at(0, j);
  }
}

void ReluForward(Matrix& y, const Matrix& x) {
  for (size_t i = 0; i < x.size(); ++i) {
    y.data()[i] = x.data()[i] > 0 ? x.data()[i] : 0.0f;
  }
}

void CopyColsForward(Matrix& y, const Matrix& x, int col_off) {
  for (int i = 0; i < x.rows(); ++i) {
    const auto src = x.row(i);
    std::copy(src.begin(), src.end(), y.row(i).begin() + col_off);
  }
}

void BroadcastSegmentsForward(Matrix& y, const Matrix& x,
                              std::span<const int> offsets, int col_off) {
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    const auto src = x.row(static_cast<int>(b));
    for (int i = offsets[b]; i < offsets[b + 1]; ++i) {
      std::copy(src.begin(), src.end(), y.row(i).begin() + col_off);
    }
  }
}

}  // namespace tpuperf::nn
