// Matrix storage plus the elementwise/reduction helpers. The six GEMM
// entry points declared in nn/matrix.h are implemented in
// nn/gemm_backend.cpp, next to the register-tiled kernels they call.
#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tpuperf::nn {
namespace {

void CheckSameShape(const Matrix& a, const Matrix& b, const char* what) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.ShapeString() + " vs " + b.ShapeString());
  }
}

}  // namespace

Matrix Matrix::Constant(int rows, int cols, float value) {
  Matrix m(rows, cols);
  m.Fill(value);
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Matrix::ShapeString() const {
  // Built with append rather than operator+ chains, which trip a GCC 12
  // -Wrestrict false positive (PR 105651) under -O3.
  std::string s = "[";
  s += std::to_string(rows_);
  s += 'x';
  s += std::to_string(cols_);
  s += ']';
  return s;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Add");
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] + b.data()[i];
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Sub");
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] - b.data()[i];
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "Hadamard");
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Matrix Scale(const Matrix& a, float s) {
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * s;
  return out;
}

void AccumulateInto(Matrix& dst, const Matrix& src) {
  CheckSameShape(dst, src, "AccumulateInto");
  for (size_t i = 0; i < dst.size(); ++i) dst.data()[i] += src.data()[i];
}

void AccumulateScaled(Matrix& dst, const Matrix& src, float s) {
  CheckSameShape(dst, src, "AccumulateScaled");
  for (size_t i = 0; i < dst.size(); ++i) dst.data()[i] += s * src.data()[i];
}

Matrix ColSum(const Matrix& a) {
  Matrix out(1, a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) out.at(0, j) += a.at(i, j);
  }
  return out;
}

Matrix ColMean(const Matrix& a) {
  Matrix out = ColSum(a);
  if (a.rows() > 0) {
    const float inv = 1.0f / static_cast<float>(a.rows());
    for (int j = 0; j < a.cols(); ++j) out.at(0, j) *= inv;
  }
  return out;
}

Matrix ColMax(const Matrix& a, std::vector<int>* argmax_rows) {
  Matrix out(1, a.cols());
  if (argmax_rows != nullptr) argmax_rows->assign(static_cast<size_t>(a.cols()), 0);
  for (int j = 0; j < a.cols(); ++j) {
    float best = a.rows() > 0 ? a.at(0, j) : 0.0f;
    int best_row = 0;
    for (int i = 1; i < a.rows(); ++i) {
      if (a.at(i, j) > best) {
        best = a.at(i, j);
        best_row = i;
      }
    }
    out.at(0, j) = best;
    if (argmax_rows != nullptr) (*argmax_rows)[static_cast<size_t>(j)] = best_row;
  }
  return out;
}

float MaxAbsDiff(const Matrix& a, const Matrix& b) {
  CheckSameShape(a, b, "MaxAbsDiff");
  float worst = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    const float d = std::abs(a.data()[i] - b.data()[i]);
    if (std::isnan(d)) return d;  // propagate: std::max would drop NaN
    worst = std::max(worst, d);
  }
  return worst;
}

}  // namespace tpuperf::nn
