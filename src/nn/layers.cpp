#include "nn/layers.h"

#include <stdexcept>

namespace tpuperf::nn {

Linear::Linear(ParamStore& store, const std::string& name, int in_features,
               int out_features, std::mt19937_64& rng, bool bias)
    : out_features_(out_features) {
  weight_ = store.Create(name + ".weight", in_features, out_features,
                         Init::kXavierUniform, rng);
  if (bias) {
    bias_ = store.Create(name + ".bias", 1, out_features, Init::kZero, rng);
  }
}

Tensor Linear::Forward(Tape& tape, Tensor x) const {
  if (weight_ == nullptr) throw std::logic_error("Linear: uninitialized");
  Tensor w = tape.ParamLeaf(*weight_);
  Tensor y = MatMulOp(tape, x, w);
  if (bias_ != nullptr) {
    Tensor b = tape.ParamLeaf(*bias_);
    y = AddRowBroadcastOp(tape, y, b);
  }
  return y;
}

Mlp::Mlp(ParamStore& store, const std::string& name, int in_features,
         std::vector<int> layer_sizes, std::mt19937_64& rng,
         bool activate_last)
    : activate_last_(activate_last), in_features_(in_features) {
  int in = in_features;
  for (size_t i = 0; i < layer_sizes.size(); ++i) {
    layers_.emplace_back(store, name + ".l" + std::to_string(i), in,
                         layer_sizes[i], rng);
    in = layer_sizes[i];
  }
}

Tensor Mlp::Forward(Tape& tape, Tensor x) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    const bool last = i + 1 == layers_.size();
    if (last && !activate_last_) break;
    h = ReluOp(tape, h);
  }
  return h;
}

int Mlp::out_features() const noexcept {
  return layers_.empty() ? in_features_ : layers_.back().out_features();
}

Embedding::Embedding(ParamStore& store, const std::string& name,
                     int vocab_size, int dim, std::mt19937_64& rng)
    : dim_(dim) {
  table_ = store.Create(name + ".table", vocab_size, dim, Init::kSmallNormal,
                        rng);
}

Tensor Embedding::Forward(Tape& tape, std::span<const int> ids) const {
  if (table_ == nullptr) throw std::logic_error("Embedding: uninitialized");
  Tensor t = tape.ParamLeaf(*table_);
  return GatherRowsOp(tape, t, ids);
}

LayerNorm::LayerNorm(ParamStore& store, const std::string& name, int features,
                     std::mt19937_64& rng) {
  gamma_ = store.Create(name + ".gamma", 1, features, Init::kZero, rng);
  for (float& v : gamma_->value.flat()) v = 1.0f;
  beta_ = store.Create(name + ".beta", 1, features, Init::kZero, rng);
}

Tensor LayerNorm::Forward(Tape& tape, Tensor x) const {
  if (gamma_ == nullptr) throw std::logic_error("LayerNorm: uninitialized");
  Tensor g = tape.ParamLeaf(*gamma_);
  Tensor b = tape.ParamLeaf(*beta_);
  return LayerNormRowsOp(tape, x, g, b);
}

}  // namespace tpuperf::nn
