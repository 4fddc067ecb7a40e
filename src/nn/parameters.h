// Trainable parameters and their registry.
//
// Parameters live in a ParamStore that outlives any forward tape; layers
// hold non-owning pointers. The store also owns the Adam moment buffers.
// Model snapshots (serve/snapshot.h) encode and restore parameter values.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace tpuperf::nn {

struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
  // Adam moments (lazily sized by the optimizer).
  Matrix adam_m;
  Matrix adam_v;
};

enum class Init {
  kZero,
  kXavierUniform,   // U(-a, a), a = sqrt(6 / (fan_in + fan_out))
  kSmallNormal,     // N(0, 0.02) — embeddings
};

class ParamStore {
 public:
  ParamStore() = default;
  ParamStore(const ParamStore&) = delete;
  ParamStore& operator=(const ParamStore&) = delete;

  // Creates and registers a parameter; the pointer stays valid for the
  // lifetime of the store.
  Parameter* Create(std::string name, int rows, int cols, Init init,
                    std::mt19937_64& rng);

  std::vector<Parameter*> params();
  std::vector<const Parameter*> params() const;
  std::size_t parameter_count() const;   // number of tensors
  std::size_t scalar_count() const;      // total trainable scalars

  void ZeroGrad();

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

}  // namespace tpuperf::nn
