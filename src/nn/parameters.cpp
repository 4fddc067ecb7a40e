#include "nn/parameters.h"

#include <cmath>

namespace tpuperf::nn {

Parameter* ParamStore::Create(std::string name, int rows, int cols, Init init,
                              std::mt19937_64& rng) {
  auto p = std::make_unique<Parameter>();
  p->name = std::move(name);
  p->value = Matrix(rows, cols);
  p->grad = Matrix(rows, cols);
  switch (init) {
    case Init::kZero:
      break;
    case Init::kXavierUniform: {
      const float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
      std::uniform_real_distribution<float> dist(-a, a);
      for (float& v : p->value.flat()) v = dist(rng);
      break;
    }
    case Init::kSmallNormal: {
      std::normal_distribution<float> dist(0.0f, 0.02f);
      for (float& v : p->value.flat()) v = dist(rng);
      break;
    }
  }
  Parameter* raw = p.get();
  params_.push_back(std::move(p));
  return raw;
}

std::vector<Parameter*> ParamStore::params() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.get());
  return out;
}

std::vector<const Parameter*> ParamStore::params() const {
  std::vector<const Parameter*> out;
  out.reserve(params_.size());
  for (const auto& p : params_) out.push_back(p.get());
  return out;
}

std::size_t ParamStore::parameter_count() const { return params_.size(); }

std::size_t ParamStore::scalar_count() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p->value.size();
  return n;
}

void ParamStore::ZeroGrad() {
  for (const auto& p : params_) p->grad.SetZero();
}

}  // namespace tpuperf::nn
