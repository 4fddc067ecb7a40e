/// \file
/// Dense row-major float matrices and the handful of BLAS-like entry points
/// the autograd engine is built on. Everything in the learned cost model's
/// forward/backward passes bottoms out here.
///
/// The five GEMM entry points (MatMul/MatMulInto, MatMulTransposeA/B and
/// their Accum variants) check shapes, throwing std::invalid_argument on a
/// mismatch, and call the register-tiled kernels in nn/gemm_backend.cpp
/// directly. Their values do not depend on the core::ThreadPool width.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tpuperf::nn {

/// Dense row-major float matrix owning contiguous heap storage.
///
/// Storage is a plain `std::vector<float>` so the TapeArena (nn/tape.h) can
/// recycle it across optimization steps via TakeStorage() and the recycling
/// constructors. Rows are contiguous: element (r, c) lives at
/// `data()[r * cols() + c]`.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
    assert(rows >= 0 && cols >= 0);
  }
  /// Zero matrix reusing `recycled`'s heap storage when its capacity
  /// suffices (the TapeArena recycling path; see nn/tape.h).
  Matrix(int rows, int cols, std::vector<float>&& recycled)
      : rows_(rows), cols_(cols), data_(std::move(recycled)) {
    assert(rows >= 0 && cols >= 0);
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }
  /// Tag type selecting the no-zero-fill recycling constructor.
  struct Uninit {};
  /// As the recycling constructor but WITHOUT the zero-fill: contents are
  /// unspecified. For outputs every element of which is about to be
  /// overwritten — skips a full memset per recycled buffer.
  Matrix(int rows, int cols, std::vector<float>&& recycled, Uninit)
      : rows_(rows), cols_(cols), data_(std::move(recycled)) {
    assert(rows >= 0 && cols >= 0);
    data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
  }

  /// A [rows, cols] matrix with every element set to `value`.
  static Matrix Constant(int rows, int cols, float value);
  /// A [1, values.size()] row vector copying `values`.
  static Matrix FromRow(std::span<const float> values);

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  /// Total element count (rows * cols).
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// Bounds-asserted element access (row-major).
  float& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw row-major storage (rows * cols contiguous floats).
  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  /// All elements as one flat span, row-major.
  std::span<float> flat() noexcept { return data_; }
  std::span<const float> flat() const noexcept { return data_; }
  /// Row `r` as a span of cols() floats (no bounds check on `r`).
  std::span<float> row(int r) noexcept {
    return {data_.data() + static_cast<size_t>(r) * cols_,
            static_cast<size_t>(cols_)};
  }
  std::span<const float> row(int r) const noexcept {
    return {data_.data() + static_cast<size_t>(r) * cols_,
            static_cast<size_t>(cols_)};
  }

  void Fill(float value);
  void SetZero() { Fill(0.0f); }

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Releases the underlying heap storage (for recycling); the matrix is
  /// left empty (0 x 0).
  std::vector<float> TakeStorage() noexcept {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  /// "[RxC]", for diagnostics.
  std::string ShapeString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// ---- GEMM entry points (kernels in nn/gemm_backend.cpp) ---------------------

/// out = a @ b. Shapes: [m,k] x [k,n] -> [m,n]. Large products are
/// partitioned by output row across the global
/// core::ThreadPool; the partitioning is bit-exact (each row is produced by
/// the same instruction sequence at any thread count).
Matrix MatMul(const Matrix& a, const Matrix& b);
/// out = a^T @ b. Shapes: [k,m] x [k,n] -> [m,n]. The register-tiled
/// kernel of MatMul over a's columns (backward-pass GEMMs), row-partitioned
/// across the pool when large.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
/// out = a @ b^T. Shapes: [m,k] x [n,k] -> [m,n]. 4x4 register blocks of
/// dot products, row-partitioned across the pool when large.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// In-place variant of MatMul writing into a caller-provided (typically
/// arena-recycled) matrix: `out` is reshaped (not zeroed: every element is
/// overwritten), then filled exactly like the allocating version — same
/// kernels, same per-element float sequence.
void MatMulInto(Matrix& out, const Matrix& a, const Matrix& b);

/// Fused backward accumulation: dst += a^T @ b without materializing the
/// product. Each output element's sum is formed in registers over
/// ascending p and added to `dst` once — bit-identical to
/// AccumulateInto(dst, MatMulTransposeA(a, b)) — while skipping the
/// temporary allocation and the extra O(mn) add pass.
void MatMulTransposeAAccum(Matrix& dst, const Matrix& a, const Matrix& b);
/// dst += a @ b^T (see MatMulTransposeAAccum). Transposes the (typically
/// small) right operand once so the vectorized row kernel carries the
/// product instead of the scalar dot kernel: the backward's hottest GEMM
/// runs at forward throughput.
void MatMulTransposeBAccum(Matrix& dst, const Matrix& a, const Matrix& b);

// ---- Elementwise / reduction helpers ----------------------------------------

Matrix Transpose(const Matrix& a);
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, float s);

/// dst += src (shapes must match).
void AccumulateInto(Matrix& dst, const Matrix& src);
/// dst += s * src.
void AccumulateScaled(Matrix& dst, const Matrix& src, float s);

/// Column-wise sum of rows: [n,c] -> [1,c].
Matrix ColSum(const Matrix& a);
/// Column-wise mean: [n,c] -> [1,c].
Matrix ColMean(const Matrix& a);
/// Column-wise max with argmax row indices: [n,c] -> [1,c].
Matrix ColMax(const Matrix& a, std::vector<int>* argmax_rows);

/// Frobenius norm over all entries (accumulated in double).
double FrobeniusNorm(const Matrix& a);
/// Dot product over all entries (accumulated in double).
double DotAll(const Matrix& a, const Matrix& b);

/// Max |a - b| over entries; shapes must match. NaN differences propagate
/// (the result is NaN) instead of being silently dropped.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace tpuperf::nn
