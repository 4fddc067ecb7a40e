// Min-max feature scaling (paper §3.1, footnote 1): "Features are
// independently scaled to be in the range [0, 1] using the minimum and
// maximum observed in the training set." Transforms clamp, so unseen test
// values cannot explode activations.
#pragma once

#include <span>
#include <vector>

namespace tpuperf::feat {

class FeatureScaler {
 public:
  FeatureScaler() = default;
  explicit FeatureScaler(int num_features);

  int num_features() const noexcept { return static_cast<int>(min_.size()); }

  // Accumulates one raw feature row from the training set.
  void Observe(std::span<const double> row);

  // Scales one value of feature `index` into [0, 1] (clamped).
  double Transform(int index, double value) const;
  // Scales a whole row in place.
  void TransformRow(std::span<double> row) const;
  // Scales a row into floats (for Matrix rows).
  void TransformRow(std::span<const double> row, std::span<float> out) const;

  bool fitted() const noexcept { return observed_ > 0; }
  long observed() const noexcept { return observed_; }

  // Raw fitted statistics, for model snapshots (serve/snapshot.h) and tests.
  std::span<const double> mins() const noexcept { return min_; }
  std::span<const double> maxs() const noexcept { return max_; }

  // Reconstructs a scaler from serialized statistics. Throws
  // std::invalid_argument when min/max widths differ.
  static FeatureScaler FromStats(std::vector<double> min,
                                 std::vector<double> max, long observed);

 private:
  std::vector<double> min_;
  std::vector<double> max_;
  long observed_ = 0;
};

}  // namespace tpuperf::feat
