#include "nn/attention.h"

#include <cmath>
#include <stdexcept>

namespace tpuperf::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(ParamStore& store,
                                               const std::string& name,
                                               int dim, int num_heads,
                                               std::mt19937_64& rng) {
  if (num_heads <= 0 || dim % num_heads != 0) {
    throw std::invalid_argument("MHSA: dim must be divisible by num_heads");
  }
  head_dim_ = dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    const std::string prefix = name + ".h" + std::to_string(h);
    heads_.push_back(Head{Linear(store, prefix + ".q", dim, head_dim_, rng),
                          Linear(store, prefix + ".k", dim, head_dim_, rng),
                          Linear(store, prefix + ".v", dim, head_dim_, rng)});
  }
  out_ = Linear(store, name + ".out", dim, dim, rng);
}

Tensor MultiHeadSelfAttention::Forward(Tape& tape, Tensor x,
                                       std::span<const int> offsets) const {
  if (heads_.empty()) throw std::logic_error("MHSA: uninitialized");
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    // Projections over the whole packed batch — single GEMMs.
    Tensor q = head.q.Forward(tape, x);
    Tensor k = head.k.Forward(tape, x);
    Tensor v = head.v.Forward(tape, x);
    // Attention stays per segment, fused into one differentiable op.
    head_outputs.push_back(
        BlockDiagSelfAttentionOp(tape, q, k, v, offsets, scale));
  }
  Tensor merged = ConcatColsOp(tape, head_outputs);
  return out_.Forward(tape, merged);
}

TransformerEncoderLayer::TransformerEncoderLayer(ParamStore& store,
                                                 const std::string& name,
                                                 int dim, int num_heads,
                                                 std::mt19937_64& rng)
    : attention_(store, name + ".attn", dim, num_heads, rng),
      norm1_(store, name + ".ln1", dim, rng),
      norm2_(store, name + ".ln2", dim, rng),
      ffn_(store, name + ".ffn", dim, {2 * dim, dim}, rng,
           /*activate_last=*/false) {}

Tensor TransformerEncoderLayer::Forward(Tape& tape, Tensor x,
                                        std::span<const int> offsets) const {
  // Layer norms and the FFN are row-wise, so they run packed; only the
  // attention needs the segment structure.
  Tensor attn = attention_.Forward(tape, norm1_.Forward(tape, x), offsets);
  Tensor h = AddOp(tape, x, attn);
  Tensor ffn = ffn_.Forward(tape, norm2_.Forward(tape, h));
  return AddOp(tape, h, ffn);
}

TransformerEncoder::TransformerEncoder(ParamStore& store,
                                       const std::string& name, int dim,
                                       int num_heads, int num_layers,
                                       std::mt19937_64& rng) {
  for (int l = 0; l < num_layers; ++l) {
    layers_.emplace_back(store, name + ".layer" + std::to_string(l), dim,
                         num_heads, rng);
  }
}

Tensor TransformerEncoder::Forward(Tape& tape, Tensor x,
                                   std::span<const int> offsets) const {
  Tensor h = x;
  for (const auto& layer : layers_) h = layer.Forward(tape, h, offsets);
  return h;
}

}  // namespace tpuperf::nn
