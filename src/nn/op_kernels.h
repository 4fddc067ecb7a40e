// Into-preplanned-buffer forward kernels shared by the tape ops (nn/ops.cpp)
// and the compiled-plan executor (src/plan). Each kernel writes a
// caller-shaped output matrix and performs EXACTLY the float sequence of the
// corresponding tape op's forward — same accumulation order — so a plan
// replaying these kernels is bit-identical to the tape's training forward.
//
// Backward by-products (inverse norms, layer-norm xhat, attention
// probabilities, the LSTM trace) are optional out-parameters: the tape ops
// pass them so their backward closures keep working, the plan executor
// passes nullptr and pays only for the forward values.
//
// Kernels that need per-row scratch (attention score rows, LSTM state) use
// grow-only thread_local buffers, so steady-state replay performs zero heap
// allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.h"

namespace tpuperf::nn {

// A constant sparse aggregation operator (a graph adjacency) as a
// row-sorted edge list: row i sums weight[e] * x[col[e], :] over
// e in [row_begin[i], row_begin[i+1]), with col strictly ascending inside a
// row. Visiting a row's neighbours in ascending order gives each output the
// MulAdd chain of the equivalent dense row with its zero terms skipped.
struct EdgeList {
  std::vector<int> row_begin = {0};  // rows() + 1 entries
  std::vector<int> col;
  std::vector<float> weight;

  int rows() const noexcept { return static_cast<int>(row_begin.size()) - 1; }
};

// Throws std::invalid_argument unless `offsets` has >= 2 entries, starts at
// 0, ends at `rows`, and is monotone.
void CheckSegmentOffsetsFor(int rows, std::span<const int> offsets,
                            const char* op);

// Flat storage offsets of the per-segment [len_b, len_b] attention
// matrices: segment b occupies [sq[b], sq[b+1]) row-major. Resizes `sq`
// (grow-only when reused). Throws when the total exceeds INT_MAX.
void SquaredSegmentOffsetsInto(std::span<const int> offsets,
                               std::vector<std::int64_t>& sq);

int MaxSegmentLength(std::span<const int> offsets);

// y[i, :] = x[i, :] / (|x[i, :]| + eps), the squared norm a float
// simd::Dot (lane sums in a fixed order). `inv_norms`, when non-null, must
// hold x.rows() floats and receives each row's reciprocal norm.
void RowL2NormalizeForward(Matrix& y, const Matrix& x, float eps,
                           float* inv_norms);

// Row layer norm: y = ((x - mean) * istd) * gamma + beta. `xhat` (shaped
// [n, c]) and `inv_std` (n floats), when non-null, receive the backward
// state; with xhat == nullptr the normalized value is fused into the output
// pass (identical floats — xhat is computed and consumed in float either
// way).
void LayerNormRowsForward(Matrix& y, const Matrix& x, const Matrix& gamma,
                          const Matrix& beta, float eps, Matrix* xhat,
                          float* inv_std);

// Segment reductions. `y` must be pre-shaped [B, x.cols()] and zero-filled
// (the sums accumulate into it).
void SegmentSumForward(Matrix& y, const Matrix& x,
                       std::span<const int> offsets);
// `inv`, when non-null, must hold B floats (zero-initialized) and receives
// each non-empty segment's 1/len.
void SegmentMeanForward(Matrix& y, const Matrix& x,
                        std::span<const int> offsets, float* inv);
// `argmax`, when non-null, must hold B * cols ints and receives the row
// index of each maximum (-1 for empty segments). `y` may be uninitialized
// (every element is written).
void SegmentMaxForward(Matrix& y, const Matrix& x,
                       std::span<const int> offsets, int* argmax);

// y[seg b] += blocks[b] @ x[seg b], each row summing its edges in
// ascending column order, one simd::MulAdd per edge and column. `y` must
// be pre-shaped [x.rows(), x.cols()] and zero-filled. Validates block row
// counts.
void EdgeAggregateForward(Matrix& y, std::span<const EdgeList* const> blocks,
                          std::span<const int> offsets, const Matrix& x);
// The transposed scatter: dx[seg b] += blocks[b]^T @ dy[seg b], visiting
// rows and their edges in ascending order, one simd::MulAdd each.
void EdgeAggregateBackward(Matrix& dx, std::span<const EdgeList* const> blocks,
                           std::span<const int> offsets, const Matrix& dy);

// y[seg b] = Softmax(scale * q_b @ k_b^T) @ v_b. `y` must be pre-shaped
// [q.rows(), v.cols()] and zero-filled. `sq`/`max_len` come from
// SquaredSegmentOffsetsInto/MaxSegmentLength over the same offsets.
// `probs`, when non-null, receives the attention probabilities packed at
// sq[b] + i * len_b.
void BlockDiagSelfAttentionForward(Matrix& y, const Matrix& q,
                                   const Matrix& k, const Matrix& v,
                                   std::span<const int> offsets,
                                   std::span<const std::int64_t> sq,
                                   int max_len, float scale, float* probs);

// GAT attention: y[seg b] = MaskedSoftmax(LeakyReLU(s_b (+) d_b^T, alpha),
// masks[b]) @ wh_b. Same conventions as the self-attention kernel.
void BlockDiagGatAttentionForward(Matrix& y, const Matrix& s, const Matrix& d,
                                  const Matrix& wh,
                                  std::span<const Matrix* const> masks,
                                  std::span<const int> offsets,
                                  std::span<const std::int64_t> sq,
                                  int max_len, float alpha, float* probs);

// The LSTM recurrence — the only implementation, shared by the tape op
// (LstmSequenceOp), Lstm::ForwardBatched and the plan's kLstmReduce.
// Segment b of a packed batch runs over node rows
// [offsets[b], offsets[b+1]) (every segment non-empty); node i's step is
//   pre = h_prev @ w_h + (xw[i, :] + bias)     gate order i|f|g|o
//   c   = sigmoid(f) * c_prev + sigmoid(i) * tanh(g)
//   h   = sigmoid(o) * tanh(c)
// from zero state. The segments step in lockstep: step t's recurrent
// products of every segment still running form one multi-row register
// tile product (no per-step GEMM dispatch, no [h | c] split), and a row's
// value does not depend on its tile-mates. `xw` [N, 4h] is the input-side
// projection of every node,
// `w_h` [h, 4h] the recurrent weight, `bias` [1, 4h]. Writes segment b's
// final hidden state to row b of `h_final` (pre-shaped [B, h]).
//
// `trace`, when non-null, records the backward state per node row: the
// state each step read (h_prev, c_prev; [N, h] each), the gate activations
// ([N, 4h]) and tanh(c) ([N, h]).
struct LstmTrace {
  Matrix* h_prev = nullptr;
  Matrix* c_prev = nullptr;
  Matrix* gates = nullptr;
  Matrix* tanh_c = nullptr;
};
void LstmSequenceForward(Matrix& h_final, const Matrix& xw, const Matrix& w_h,
                         const Matrix& bias, std::span<const int> offsets,
                         const LstmTrace* trace);

// Backpropagation through time for LstmSequenceForward: from dh_final
// ([B, h]) and the forward's trace, writes every node's gate
// pre-activation gradient into `dpre` (pre-shaped [N, 4h]; row i is also
// d xw[i, :]). The weight and bias gradients follow from it as one GEMM
// (h_prev^T @ dpre) and one column sum. The segments step back in lockstep
// from their last nodes, with dh_prev = dpre @ W_h^T as one multi-row
// tile product over the live segments; W_h^T is packed once per call.
void LstmSequenceBackward(Matrix& dpre, const Matrix& dh_final,
                          const Matrix& w_h, std::span<const int> offsets,
                          const LstmTrace& trace);

// y[i, :] = x[i, :] + bias[0, :]; y may be x (the plan's GEMM epilogue).
void AddRowBroadcastForward(Matrix& y, const Matrix& x, const Matrix& bias);
// y = max(x, 0) elementwise; y may be x.
void ReluForward(Matrix& y, const Matrix& x);

// The copy kernels write columns [col_off, col_off + width) of each output
// row: a concat is one call per part.
// y[i, col_off:] = table[ids[i], :]; throws std::out_of_range on a bad id.
void GatherRowsForward(Matrix& y, const Matrix& table,
                       std::span<const int> ids, int col_off = 0);
// y[i, col_off:] = x[i, :].
void CopyColsForward(Matrix& y, const Matrix& x, int col_off);
// y[i, col_off:] = x[b, :] for every row i of segment b.
void BroadcastSegmentsForward(Matrix& y, const Matrix& x,
                              std::span<const int> offsets, int col_off = 0);

}  // namespace tpuperf::nn
