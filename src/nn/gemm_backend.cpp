// The GEMM kernels and the nn::MatMul* entry points declared in
// nn/matrix.h: each entry point checks shapes and calls the register-tiled
// kernels directly.
#include "nn/gemm_backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/matrix.h"
#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

// ---- The kernel -------------------------------------------------------------

// The left operand of a product: row i is the k floats
// data[i * row_stride + p * step], so a matrix (row_stride its width,
// step 1) or its transpose (row_stride 1, step its width).
struct Rows {
  const float* data;
  std::size_t row_stride, step;
  int m, k;
};
Rows Plain(const Matrix& a) {
  return {a.data(), static_cast<std::size_t>(a.cols()), 1, a.rows(),
          a.cols()};
}
Rows Transposed(const Matrix& a) {
  return {a.data(), 1, static_cast<std::size_t>(a.cols()), a.cols(),
          a.rows()};
}

// out (=, or += with Accum) A @ B for the five entry points, where B is
// b, or b^T when `transpose_b`; out must already be [A.m, n].
//
// B is read through a panel (simd::PackedPanel): in place when it allows
// aligned whole-vector loads, else packed once per call into a zero-padded
// copy. The rows then run through simd::MulAddRows in blocks of
// simd::kTileRows, so every element is one MulAdd chain over ascending p
// from zero (added onto out with Accum) whatever the operands' values,
// their density or the row's position: packed batches match per-kernel
// runs exactly (the serve::PredictionService parity contract).
template <bool Accum>
void Gemm(Matrix& out, const Rows& a, const Matrix& b, bool transpose_b) {
  const int n = out.cols();
  const auto [panel, ldb] =
      simd::PackedPanel(b.data(), static_cast<std::size_t>(b.cols()), a.k, n,
                        transpose_b);
  for (int i = 0; i < a.m; i += simd::kTileRows) {
    const int rows = std::min(simd::kTileRows, a.m - i);
    const float* a_rows[simd::kTileRows];
    float* o_rows[simd::kTileRows];
    for (int r = 0; r < rows; ++r) {
      a_rows[r] = a.data + static_cast<std::size_t>(i + r) * a.row_stride;
      o_rows[r] = out.data() + static_cast<std::size_t>(i + r) * n;
    }
    simd::MulAddRows<Accum>(a_rows, a.step, panel, ldb, a.k, n, o_rows, rows);
  }
}

// ---- Shape checks -----------------------------------------------------------

void CheckMatMulShapes(const Matrix& a, const Matrix& b, const char* what) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument(std::string(what) + ": " + a.ShapeString() +
                                " x " + b.ShapeString());
  }
}

void CheckTransposeAShapes(const Matrix& a, const Matrix& b,
                           const char* what) {
  if (a.rows() != b.rows()) {
    throw std::invalid_argument(std::string(what) + ": " + a.ShapeString() +
                                "^T x " + b.ShapeString());
  }
}

void CheckTransposeBShapes(const Matrix& a, const Matrix& b,
                           const char* what) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": " + a.ShapeString() +
                                " x " + b.ShapeString() + "^T");
  }
}

void CheckAccumShape(const Matrix& dst, int rows, int cols,
                     const char* what) {
  if (dst.rows() != rows || dst.cols() != cols) {
    throw std::invalid_argument(std::string(what) + ": dst " +
                                dst.ShapeString() + " != [" +
                                std::to_string(rows) + "x" +
                                std::to_string(cols) + "]");
  }
}

}  // namespace

std::string CurrentGemmBackendName() { return "builtin"; }

// ---- Entry points (declared in nn/matrix.h) ---------------------------------

Matrix MatMul(const Matrix& a, const Matrix& b) {
  CheckMatMulShapes(a, b, "MatMul");
  Matrix out(a.rows(), b.cols(), Matrix::Storage(), Matrix::Uninit{});
  Gemm<false>(out, Plain(a), b, false);
  return out;
}

void MatMulInto(Matrix& out, const Matrix& a, const Matrix& b) {
  CheckMatMulShapes(a, b, "MatMulInto");
  // Reshape only: the kernel writes every element.
  out = Matrix(a.rows(), b.cols(), out.TakeStorage(), Matrix::Uninit{});
  Gemm<false>(out, Plain(a), b, false);
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeA");
  Matrix out(a.cols(), b.cols(), Matrix::Storage(), Matrix::Uninit{});
  Gemm<false>(out, Transposed(a), b, false);
  return out;
}

void MatMulTransposeAAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeAAccum");
  CheckAccumShape(dst, a.cols(), b.cols(), "MatMulTransposeAAccum");
  Gemm<true>(dst, Transposed(a), b, false);
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeB");
  Matrix out(a.rows(), b.rows(), Matrix::Storage(), Matrix::Uninit{});
  Gemm<false>(out, Plain(a), b, true);
  return out;
}

void MatMulTransposeBAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeBAccum");
  CheckAccumShape(dst, a.rows(), b.rows(), "MatMulTransposeBAccum");
  Gemm<true>(dst, Plain(a), b, true);
}

}  // namespace tpuperf::nn
