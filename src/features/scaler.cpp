#include "features/scaler.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tpuperf::feat {

FeatureScaler::FeatureScaler(int num_features)
    : min_(static_cast<size_t>(num_features),
           std::numeric_limits<double>::infinity()),
      max_(static_cast<size_t>(num_features),
           -std::numeric_limits<double>::infinity()) {}

void FeatureScaler::Observe(std::span<const double> row) {
  if (row.size() != min_.size()) {
    throw std::invalid_argument("FeatureScaler::Observe: width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    min_[i] = std::min(min_[i], row[i]);
    max_[i] = std::max(max_[i], row[i]);
  }
  ++observed_;
}

double FeatureScaler::Transform(int index, double value) const {
  const auto i = static_cast<size_t>(index);
  const double lo = min_[i];
  const double hi = max_[i];
  if (!(hi > lo)) return 0.0;  // constant (or never-observed) feature
  const double scaled = (value - lo) / (hi - lo);
  return std::clamp(scaled, 0.0, 1.0);
}

void FeatureScaler::TransformRow(std::span<double> row) const {
  if (row.size() != min_.size()) {
    throw std::invalid_argument("FeatureScaler::TransformRow: width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    row[i] = Transform(static_cast<int>(i), row[i]);
  }
}

void FeatureScaler::TransformRow(std::span<const double> row,
                                 std::span<float> out) const {
  if (row.size() != min_.size() || out.size() != row.size()) {
    throw std::invalid_argument("FeatureScaler::TransformRow: width mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    out[i] = static_cast<float>(Transform(static_cast<int>(i), row[i]));
  }
}

FeatureScaler FeatureScaler::FromStats(std::vector<double> min,
                                       std::vector<double> max,
                                       long observed) {
  if (min.size() != max.size()) {
    throw std::invalid_argument("FeatureScaler::FromStats: width mismatch");
  }
  FeatureScaler scaler;
  scaler.min_ = std::move(min);
  scaler.max_ = std::move(max);
  scaler.observed_ = observed;
  return scaler;
}

}  // namespace tpuperf::feat
