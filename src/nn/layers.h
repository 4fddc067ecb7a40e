// Basic trainable layers composed from ops: Linear, MLP, Embedding,
// LayerNorm. Layers hold non-owning Parameter pointers registered in a
// ParamStore that must outlive them.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "nn/parameters.h"
#include "nn/tape.h"

namespace tpuperf::nn {

// y = x @ W (+ b). The paper's models "include per-layer biases: no"
// (Table 5), so bias defaults off.
class Linear {
 public:
  Linear() = default;
  Linear(ParamStore& store, const std::string& name, int in_features,
         int out_features, std::mt19937_64& rng, bool bias = false);

  Tensor Forward(Tape& tape, Tensor x) const;
  int out_features() const noexcept { return out_features_; }

  Parameter* weight_param() const noexcept { return weight_; }
  Parameter* bias_param() const noexcept { return bias_; }

 private:
  Parameter* weight_ = nullptr;
  Parameter* bias_ = nullptr;
  int out_features_ = 0;
};

// A stack of Linear layers with a ReLU between (and optionally after) them —
// the paper's "feedforward" modules (f1, f2, f3, node final layers).
class Mlp {
 public:
  Mlp() = default;
  Mlp(ParamStore& store, const std::string& name, int in_features,
      std::vector<int> layer_sizes, std::mt19937_64& rng,
      bool activate_last = true);

  Tensor Forward(Tape& tape, Tensor x) const;
  int out_features() const noexcept;
  int num_layers() const noexcept { return static_cast<int>(layers_.size()); }

 private:
  std::vector<Linear> layers_;
  bool activate_last_ = true;
  int in_features_ = 0;
};

// Categorical embedding table; the opcode embedding of paper §3.2.
class Embedding {
 public:
  Embedding() = default;
  Embedding(ParamStore& store, const std::string& name, int vocab_size,
            int dim, std::mt19937_64& rng);

  // ids -> [len(ids), dim].
  Tensor Forward(Tape& tape, std::span<const int> ids) const;
  int dim() const noexcept { return dim_; }

 private:
  Parameter* table_ = nullptr;
  int dim_ = 0;
};

// Learned per-feature gain/bias layer norm over rows.
class LayerNorm {
 public:
  LayerNorm() = default;
  LayerNorm(ParamStore& store, const std::string& name, int features,
            std::mt19937_64& rng);

  Tensor Forward(Tape& tape, Tensor x) const;

 private:
  Parameter* gamma_ = nullptr;
  Parameter* beta_ = nullptr;
};

}  // namespace tpuperf::nn
