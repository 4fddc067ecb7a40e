// Multi-head self-attention and the Transformer encoder layer used as the
// global kernel-embedding reduction (paper §3.2, reduction option 3).
//
// Each Forward runs over a packed [N, dim] input whose row segments
// (delimited by `offsets`, B+1 entries) are independent sequences; one
// sequence is the one-segment case. All dense transforms (q/k/v
// projections, layer norms, the FFN) run as single GEMMs over the whole
// packed batch, and attention is applied block-diagonally through
// BlockDiagSelfAttentionOp so sequences never attend across segments — one
// differentiable op over every segment of the batch.
#pragma once

#include <random>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/tape.h"

namespace tpuperf::nn {

// Scaled dot-product multi-head self-attention over [n, dim] inputs.
class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention() = default;
  MultiHeadSelfAttention(ParamStore& store, const std::string& name, int dim,
                         int num_heads, std::mt19937_64& rng);

  Tensor Forward(Tape& tape, Tensor x, std::span<const int> offsets) const;

 private:
  struct Head {
    Linear q, k, v;
  };

  std::vector<Head> heads_;
  Linear out_;
  int head_dim_ = 0;
};

// Pre-LN Transformer encoder block: x + MHSA(LN(x)), then x + FFN(LN(x)).
class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer() = default;
  TransformerEncoderLayer(ParamStore& store, const std::string& name, int dim,
                          int num_heads, std::mt19937_64& rng);

  Tensor Forward(Tape& tape, Tensor x, std::span<const int> offsets) const;

 private:
  MultiHeadSelfAttention attention_;
  LayerNorm norm1_, norm2_;
  Mlp ffn_;
};

// A stack of encoder layers ("Transformer layers" hyperparameter, Tables
// 6-7).
class TransformerEncoder {
 public:
  TransformerEncoder() = default;
  TransformerEncoder(ParamStore& store, const std::string& name, int dim,
                     int num_heads, int num_layers, std::mt19937_64& rng);

  Tensor Forward(Tape& tape, Tensor x, std::span<const int> offsets) const;

 private:
  std::vector<TransformerEncoderLayer> layers_;
};

}  // namespace tpuperf::nn
