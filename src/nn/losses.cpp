#include "nn/losses.h"

#include <cmath>
#include <stdexcept>

#include "nn/ops.h"

namespace tpuperf::nn {
namespace {

void CheckPredictions(const Tensor& preds, size_t target_count) {
  if (preds.cols() != 1 ||
      static_cast<size_t>(preds.rows()) != target_count) {
    throw std::invalid_argument("loss: preds must be [n, 1] matching targets");
  }
}

}  // namespace

Tensor PairwiseRankLoss(Tape& tape, Tensor preds,
                        std::span<const double> targets,
                        RankSurrogate surrogate) {
  CheckPredictions(preds, targets.size());
  const int n = preds.rows();
  const Matrix& pv = preds.value();

  // Forward: average phi over ordered pairs. The denominator is the paper's
  // n(n-1)/2 regardless of how many pairs are actually ordered.
  const double denom = n > 1 ? 0.5 * n * (n - 1) : 1.0;
  double loss = 0;
  Matrix dpred(n, 1);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (!(targets[static_cast<size_t>(i)] > targets[static_cast<size_t>(j)]))
        continue;
      const double z =
          static_cast<double>(pv.at(i, 0)) - static_cast<double>(pv.at(j, 0));
      double phi = 0, dphi = 0;
      switch (surrogate) {
        case RankSurrogate::kHinge:
          phi = std::max(0.0, 1.0 - z);
          dphi = z < 1.0 ? -1.0 : 0.0;
          break;
        case RankSurrogate::kLogistic: {
          // log(1 + e^-z), numerically stable.
          phi = z > 0 ? std::log1p(std::exp(-z))
                      : -z + std::log1p(std::exp(z));
          dphi = -1.0 / (1.0 + std::exp(z));
          break;
        }
      }
      loss += phi;
      dpred.at(i, 0) += static_cast<float>(dphi / denom);
      dpred.at(j, 0) -= static_cast<float>(dphi / denom);
    }
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / denom);
  TapeNode* pn = preds.node();
  return tape.NewNode(std::move(out), {pn},
                      [pn, dpred = std::move(dpred)](TapeNode& self) {
                        AccumulateScaled(pn->grad, dpred, self.grad.at(0, 0));
                      });
}

namespace {

Tensor SquaredErrorLoss(Tape& tape, Tensor preds,
                        std::span<const double> transformed_targets) {
  const int n = preds.rows();
  Matrix target(n, 1);
  for (int i = 0; i < n; ++i) {
    target.at(i, 0) =
        static_cast<float>(transformed_targets[static_cast<size_t>(i)]);
  }
  Tensor t = tape.Leaf(std::move(target));
  Tensor diff = SubOp(tape, preds, t);
  return MeanAllOp(tape, MulOp(tape, diff, diff));
}

}  // namespace

Tensor MseLogLoss(Tape& tape, Tensor preds, std::span<const double> targets,
                  double eps) {
  CheckPredictions(preds, targets.size());
  std::vector<double> logs(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    logs[i] = std::log(targets[i] + eps);
  }
  return SquaredErrorLoss(tape, preds, logs);
}

}  // namespace tpuperf::nn
