#include "nn/parameters.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

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

std::size_t ParamStore::parameter_count() const { return params_.size(); }

std::size_t ParamStore::scalar_count() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p->value.size();
  return n;
}

void ParamStore::ZeroGrad() {
  for (const auto& p : params_) p->grad.SetZero();
}

void ParamStore::Save(std::ostream& os) const {
  const std::uint64_t count = params_.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& p : params_) {
    const std::uint64_t name_len = p->name.size();
    os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    os.write(p->name.data(), static_cast<std::streamsize>(name_len));
    const std::int32_t rows = p->value.rows();
    const std::int32_t cols = p->value.cols();
    os.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    os.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
}

void ParamStore::Load(std::istream& is) {
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (count != params_.size()) {
    throw std::runtime_error("ParamStore::Load: parameter count mismatch");
  }
  for (const auto& p : params_) {
    std::uint64_t name_len = 0;
    is.read(reinterpret_cast<char*>(&name_len), sizeof(name_len));
    // Checked before the name is read: the length comes from the stream,
    // and allocating it unchecked lets a corrupt field ask for terabytes.
    if (name_len != p->name.size()) {
      throw std::runtime_error("ParamStore::Load: name length mismatch for " +
                               p->name);
    }
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    if (name != p->name) {
      throw std::runtime_error("ParamStore::Load: name mismatch: expected " +
                               p->name + ", got " + name);
    }
    std::int32_t rows = 0, cols = 0;
    is.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    is.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw std::runtime_error("ParamStore::Load: shape mismatch for " + name);
    }
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  if (!is) throw std::runtime_error("ParamStore::Load: truncated stream");
}

}  // namespace tpuperf::nn
