// Training objectives (paper §3.3).
//
//  * Tile-size task: pairwise rank loss (Burges et al. 2005), Eq. (1) —
//    the model only needs to rank tile sizes within a kernel.
//  * Fusion task: squared error on log-transformed runtimes — targets are
//    right-skewed, spanning nanoseconds to seconds.
#pragma once

#include <span>

#include "nn/tape.h"

namespace tpuperf::nn {

enum class RankSurrogate {
  kHinge,     // phi(z) = max(0, 1 - z)
  kLogistic,  // phi(z) = log(1 + exp(-z))
};

// L = sum_{i,j} phi(pred_i - pred_j) * [target_i > target_j] / (n(n-1)/2).
// `preds` is an [n, 1] tensor; `targets` the true runtimes (any montone
// scale). Returns a [1, 1] loss tensor with analytic gradients.
Tensor PairwiseRankLoss(Tape& tape, Tensor preds,
                        std::span<const double> targets,
                        RankSurrogate surrogate);

// Mean squared error between preds [n, 1] and log-transformed targets;
// callers pass raw runtimes, the transform log(t + eps) happens here.
Tensor MseLogLoss(Tape& tape, Tensor preds, std::span<const double> targets,
                  double eps = 1e-9);

}  // namespace tpuperf::nn
