#include "nn/optimizer.h"

#include <cmath>
#include <cstring>

#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

// One step's float constants. The bias corrections fold into two scalars:
// lr * m_hat = lr_t * m with lr_t = lr / bc1, and sqrt(v_hat) =
// sqrt(v) * inv_sqrt_bc2.
struct AdamLanes {
  simd::VecF scale, beta1, one_minus_beta1, beta2, one_minus_beta2, lr_t,
      inv_sqrt_bc2, epsilon;
};

// m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
// value -= lr_t m / (sqrt(v) inv_sqrt_bc2 + eps) for one vector of
// elements (g = grad * scale), each multiply-add one simd::MulAdd. A first
// moment below FLT_MIN in magnitude is flushed to +0: once a parameter's
// gradient stops, m decays by beta1 per step into the subnormal range,
// where every later multiply takes the CPU's slow microcoded path, while
// its share of the update, lr_t m / den, is far below value's precision.
inline simd::VecF AdamUpdate(const AdamLanes& c, simd::VecF value,
                             simd::VecF& m, simd::VecF& v, simd::VecF grad) {
  const simd::VecF g = grad * c.scale;
  m = simd::FlushTiny(simd::MulAdd(c.beta1, m, c.one_minus_beta1 * g));
  v = simd::MulAdd(c.beta2, v, c.one_minus_beta2 * g * g);
  const simd::VecF den = simd::MulAdd(simd::Sqrt(v), c.inv_sqrt_bc2, c.epsilon);
  return value - c.lr_t * m / den;
}

// One vector of elements at each pointer, its gradient zeroed.
inline void AdamUpdateVector(const AdamLanes& c, float* value, float* m,
                             float* v, float* grad) {
  simd::VecF mv = simd::Load(m);
  simd::VecF vv = simd::Load(v);
  simd::Store(value,
              AdamUpdate(c, simd::Load(value), mv, vv, simd::Load(grad)));
  simd::Store(m, mv);
  simd::Store(v, vv);
  simd::Store(grad, simd::VecF{});
}

// Updates n elements and zeroes their gradients in one pass. The n % lanes
// tail runs the same vector code on a zero-padded copy, so every element
// gets the same arithmetic whatever its position.
void AdamUpdateTensor(const AdamLanes& c, float* value, float* m, float* v,
                      float* grad, std::size_t n) {
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    AdamUpdateVector(c, value + i, m + i, v + i, grad + i);
  }
  if (i == n) return;
  const std::size_t bytes = sizeof(float) * (n - i);
  float tail[4][simd::kLanes] = {};
  std::memcpy(tail[0], value + i, bytes);
  std::memcpy(tail[1], m + i, bytes);
  std::memcpy(tail[2], v + i, bytes);
  std::memcpy(tail[3], grad + i, bytes);
  AdamUpdateVector(c, tail[0], tail[1], tail[2], tail[3]);
  std::memcpy(value + i, tail[0], bytes);
  std::memcpy(m + i, tail[1], bytes);
  std::memcpy(v + i, tail[2], bytes);
  std::memcpy(grad + i, tail[3], bytes);
}

}  // namespace

void Adam::Step(std::span<Parameter* const> params) {
  ++step_;

  double norm_sq = 0;
  for (const Parameter* p : params) {
    norm_sq += simd::Dot(p->grad.data(), p->grad.data(), p->grad.size());
  }
  last_grad_norm_ = std::sqrt(norm_sq);

  double scale = 1.0;
  if (config_.clip == GradClip::kNorm && last_grad_norm_ > config_.clip_norm &&
      last_grad_norm_ > 0) {
    scale = config_.clip_norm / last_grad_norm_;
  }

  const double bc1 = 1.0 - std::pow(config_.beta1, step_);
  const double bc2 = 1.0 - std::pow(config_.beta2, step_);
  const auto lanes = [](double x) {
    return simd::Broadcast(static_cast<float>(x));
  };
  const AdamLanes c{lanes(scale),
                    lanes(config_.beta1),
                    lanes(1.0 - config_.beta1),
                    lanes(config_.beta2),
                    lanes(1.0 - config_.beta2),
                    lanes(config_.learning_rate / bc1),
                    lanes(1.0 / std::sqrt(bc2)),
                    lanes(config_.epsilon)};
  for (Parameter* p : params) {
    if (p->adam_m.empty()) {
      p->adam_m = Matrix(p->value.rows(), p->value.cols());
      p->adam_v = Matrix(p->value.rows(), p->value.cols());
    }
    AdamUpdateTensor(c, p->value.data(), p->adam_m.data(), p->adam_v.data(),
                     p->grad.data(), p->value.size());
  }
}

}  // namespace tpuperf::nn
