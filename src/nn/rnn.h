// LSTM over node sequences (paper §3.2: kernel-embedding reduction option 2
// — "the final state of an LSTM on topologically sorted node embeddings").
#pragma once

#include <random>
#include <span>
#include <string>

#include "nn/layers.h"
#include "nn/tape.h"

namespace tpuperf::nn {

// Single-layer LSTM. Input is [seq_len, in_features] (one row per step);
// state and output are [1, hidden].
class Lstm {
 public:
  Lstm() = default;
  Lstm(ParamStore& store, const std::string& name, int in_features,
       int hidden, std::mt19937_64& rng);

  struct Output {
    Tensor final_hidden;  // [1, hidden]
    Tensor all_hidden;    // [seq_len, hidden]
  };

  Output Forward(Tape& tape, Tensor x) const;

  // Runs the LSTM over every segment of a packed batch: the input-side gate
  // projection of all nodes is one GEMM, and the recurrence is one
  // LstmSequenceOp node (the same kernel the compiled plan replays).
  // `offsets` has B+1 monotone entries delimiting the row segments of `x`;
  // every segment must be non-empty. Returns the final hidden states as a
  // [B, hidden] tensor in segment order; row b matches
  // Forward(rows of segment b).final_hidden up to float accumulation
  // grouping (the input-side and recurrent gate products are split here),
  // ~1e-9 in practice.
  Tensor ForwardBatched(Tape& tape, Tensor x,
                        std::span<const int> offsets) const;

  int hidden() const noexcept { return hidden_; }

 private:
  // Separate weight matrices per gate ([in+hidden, hidden] each) instead of
  // one fused matrix, to avoid column slicing on the tape.
  Linear input_gate_, forget_gate_, cell_gate_, output_gate_;
  int hidden_ = 0;
};

}  // namespace tpuperf::nn
