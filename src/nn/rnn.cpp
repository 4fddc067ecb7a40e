#include "nn/rnn.h"

#include <stdexcept>

namespace tpuperf::nn {

Lstm::Lstm(ParamStore& store, const std::string& name, int in_features,
           int hidden, std::mt19937_64& rng)
    : hidden_(hidden) {
  const int z = in_features + hidden;
  input_gate_ = Linear(store, name + ".wi", z, hidden, rng, /*bias=*/true);
  forget_gate_ = Linear(store, name + ".wf", z, hidden, rng, /*bias=*/true);
  cell_gate_ = Linear(store, name + ".wg", z, hidden, rng, /*bias=*/true);
  output_gate_ = Linear(store, name + ".wo", z, hidden, rng, /*bias=*/true);
}

Lstm::Output Lstm::Forward(Tape& tape, Tensor x) const {
  if (hidden_ == 0) throw std::logic_error("Lstm: uninitialized");
  const int seq_len = x.rows();
  Tensor h = tape.Leaf(Matrix(1, hidden_));
  Tensor c = tape.Leaf(Matrix(1, hidden_));
  std::vector<Tensor> states;
  states.reserve(static_cast<size_t>(seq_len));
  for (int t = 0; t < seq_len; ++t) {
    Tensor xt = SliceRowOp(tape, x, t);
    const Tensor zh[] = {xt, h};
    Tensor z = ConcatColsOp(tape, zh);
    Tensor i = SigmoidOp(tape, input_gate_.Forward(tape, z));
    Tensor f = SigmoidOp(tape, forget_gate_.Forward(tape, z));
    Tensor g = TanhOp(tape, cell_gate_.Forward(tape, z));
    Tensor o = SigmoidOp(tape, output_gate_.Forward(tape, z));
    c = AddOp(tape, MulOp(tape, f, c), MulOp(tape, i, g));
    h = MulOp(tape, o, TanhOp(tape, c));
    states.push_back(h);
  }
  Output out;
  out.final_hidden = h;
  out.all_hidden = ConcatRowsOp(tape, states);
  return out;
}

Tensor Lstm::ForwardBatched(Tape& tape, Tensor x,
                            std::span<const int> offsets) const {
  if (hidden_ == 0) throw std::logic_error("Lstm: uninitialized");
  // Fuse the four gate transforms into one [in+hidden, 4*hidden] matrix:
  // the weight (and bias) concatenation happens once per call, and each
  // concatenated column block reproduces its per-gate product exactly.
  const Tensor weights[] = {tape.ParamLeaf(*input_gate_.weight_param()),
                            tape.ParamLeaf(*forget_gate_.weight_param()),
                            tape.ParamLeaf(*cell_gate_.weight_param()),
                            tape.ParamLeaf(*output_gate_.weight_param())};
  const Tensor biases[] = {tape.ParamLeaf(*input_gate_.bias_param()),
                           tape.ParamLeaf(*forget_gate_.bias_param()),
                           tape.ParamLeaf(*cell_gate_.bias_param()),
                           tape.ParamLeaf(*output_gate_.bias_param())};
  Tensor w_all = ConcatColsOp(tape, weights);  // [in+hidden, 4h]
  Tensor b_all = ConcatColsOp(tape, biases);   // [1, 4h]
  const int in_features = w_all.rows() - hidden_;
  // The input-side projection of EVERY node is one large GEMM; the
  // recurrence over the hidden state runs inside the sequence op.
  Tensor xw = MatMulOp(tape, x, SliceRowsOp(tape, w_all, 0, in_features));
  Tensor w_h = SliceRowsOp(tape, w_all, in_features, hidden_);
  return LstmSequenceOp(tape, xw, w_h, b_all, offsets);
}

}  // namespace tpuperf::nn
