// Differentiable operations on Tape tensors.
//
// Each op computes the forward value eagerly and records a closure that
// pushes d(out) into d(inputs). Every op here is covered by a numerical
// gradient check in tests/nn_grad_test.cpp. Ops that a compiled plan can
// replay pass their replay form to Tape::NewNode (see nn/schedule.h).
#pragma once

#include <random>
#include <span>
#include <vector>

#include "nn/op_kernels.h"
#include "nn/tape.h"

namespace tpuperf::nn {

// y = a @ b.
Tensor MatMulOp(Tape& tape, Tensor a, Tensor b);

Tensor AddOp(Tape& tape, Tensor a, Tensor b);
Tensor SubOp(Tape& tape, Tensor a, Tensor b);
Tensor MulOp(Tape& tape, Tensor a, Tensor b);  // elementwise
// y[i, :] = x[i, :] + bias[0, :]; bias is [1, c].
Tensor AddRowBroadcastOp(Tape& tape, Tensor x, Tensor bias);

Tensor ReluOp(Tape& tape, Tensor x);
Tensor LeakyReluOp(Tape& tape, Tensor x, float alpha);
Tensor TanhOp(Tape& tape, Tensor x);
Tensor SigmoidOp(Tape& tape, Tensor x);

// Inverted dropout; identity when rate <= 0.
Tensor DropoutOp(Tape& tape, Tensor x, float rate, std::mt19937_64& rng);

// Rows scaled to unit L2 norm (GraphSAGE's l2 normalization).
Tensor RowL2NormalizeOp(Tape& tape, Tensor x, float eps = 1e-6f);
// Per-row layer normalization with learned gain/bias ([1, c] each).
Tensor LayerNormRowsOp(Tape& tape, Tensor x, Tensor gamma, Tensor beta,
                       float eps = 1e-5f);

// Row-wise softmax over the entries `mask` (same shape, entries 0/1)
// keeps; masked-out entries get probability 0, and fully-masked rows
// become all-zero.
Tensor MaskedSoftmaxRowsOp(Tape& tape, Tensor x, const Matrix& mask);

Tensor ConcatColsOp(Tape& tape, std::span<const Tensor> parts);
Tensor ConcatRowsOp(Tape& tape, std::span<const Tensor> parts);
// y = x[row, :] as a [1, c] tensor.
Tensor SliceRowOp(Tape& tape, Tensor x, int row);
// y = x[begin:begin+rows, :] as a [rows, c] tensor.
Tensor SliceRowsOp(Tape& tape, Tensor x, int begin, int rows);

// The whole-sequence LSTM over every segment of a packed batch, as ONE
// tape node (see LstmSequenceForward for the recurrence): xw [N, 4h] is the
// input-side gate projection of every node, w_h [h, 4h] the recurrent
// weight, bias [1, 4h]; returns the [B, h] final hidden states in segment
// order. The backward is BPTT inside the node: it writes d xw rows
// directly, then adds the weight and bias gradients as one GEMM and one
// column sum.
Tensor LstmSequenceOp(Tape& tape, Tensor xw, Tensor w_h, Tensor bias,
                      std::span<const int> offsets);

// Column-wise reductions: [n, c] -> [1, c].
Tensor ColSumOp(Tape& tape, Tensor x);
Tensor ColMeanOp(Tape& tape, Tensor x);
Tensor ColMaxOp(Tape& tape, Tensor x);

// ---- Segment ops (batched inference over packed graphs) --------------------
// `offsets` has B+1 monotone entries with offsets[0] == 0 and
// offsets[B] == x.rows(); segment b is rows [offsets[b], offsets[b+1]).
// Each op reduces [n, c] -> [B, c], with row b equal to the corresponding
// column-wise reduction over segment b (same accumulation order, so batched
// and per-kernel results agree exactly).
Tensor SegmentSumOp(Tape& tape, Tensor x, std::span<const int> offsets);
Tensor SegmentMeanOp(Tape& tape, Tensor x, std::span<const int> offsets);
Tensor SegmentMaxOp(Tape& tape, Tensor x, std::span<const int> offsets);
// The inverse shape: [B, c] -> [n, c], every row of segment b a copy of
// row b of x (per-kernel features expanded to the kernel's nodes).
Tensor BroadcastSegmentsOp(Tape& tape, Tensor x, std::span<const int> offsets);

// y = blockdiag(blocks[0], ..., blocks[B-1]) @ x for constant edge-list
// blocks (graph adjacency operators): rows [offsets[b], offsets[b+1]) of y
// are blocks[b] @ (same rows of x). Cost is O(edges * c). A single graph is
// the one-block case. `blocks` must outlive the tape.
Tensor BlockDiagMatMulConstA(Tape& tape,
                             std::span<const EdgeList* const> blocks,
                             std::span<const int> offsets, Tensor x);

// ---- Fused block-diagonal masked attention ---------------------------------
// Both ops pack every attention segment of a batch into ONE differentiable
// tape node, whose forward and backward each loop over the segments.
// Attention probabilities are saved on the tape itself (an arena-recycled
// stash leaf), not in closure captures.

// Scaled-dot-product self-attention per segment (the Transformer reduction):
//   y[seg b] = Softmax(scale * q_b @ k_b^T) @ v_b
// q, k are [N, d]; v is [N, dv]; segments follow `offsets` (B+1 entries).
// Performs the same float sequence as MatMul/Softmax/MatMul per segment
// (outputs agree to FP-contraction differences, ~1 ulp).
Tensor BlockDiagSelfAttentionOp(Tape& tape, Tensor q, Tensor k, Tensor v,
                                std::span<const int> offsets, float scale);

// Additive (GAT) attention per segment with a LeakyReLU logit and an edge
// mask:
//   y[seg b] = MaskedSoftmax(LeakyReLU(s_b (+) d_b^T, alpha), masks[b]) @ wh_b
// s, d are [N, 1] logit halves (a_src . Wh, a_dst . Wh); wh is [N, d];
// masks[b] is the [len_b, len_b] 0/1 edge mask of segment b and must outlive
// the tape (like BlockDiagMatMulConstA's blocks). Performs the same float
// sequence as OuterSum/LeakyRelu/MaskedSoftmax/MatMul per segment (outputs
// agree to FP-contraction differences, ~1 ulp).
Tensor BlockDiagGatAttentionOp(Tape& tape, Tensor s, Tensor d, Tensor wh,
                               std::span<const Matrix* const> masks,
                               std::span<const int> offsets, float alpha);

// Whole-matrix reductions to [1, 1].
Tensor SumAllOp(Tape& tape, Tensor x);
Tensor MeanAllOp(Tape& tape, Tensor x);

// y[i, :] = table[ids[i], :]; backward scatter-adds into table rows.
Tensor GatherRowsOp(Tape& tape, Tensor table, std::span<const int> ids);

// y[i, j] = a[i, 0] + b[j, 0] for column vectors a, b (GAT attention logits).
Tensor OuterSumOp(Tape& tape, Tensor a, Tensor b);

}  // namespace tpuperf::nn
