/// \file
/// Dense row-major float matrices and the handful of BLAS-like entry points
/// the autograd engine is built on. Everything in the learned cost model's
/// forward/backward passes bottoms out here.
///
/// The five GEMM entry points (MatMul/MatMulInto, MatMulTransposeA/B and
/// their Accum variants) check shapes, throwing std::invalid_argument on a
/// mismatch, and call the register-tiled kernels in nn/gemm_backend.cpp
/// directly, on the caller's thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tpuperf::nn {

/// A 64-byte-aligned allocator (a cache line, one AVX-512 vector) whose
/// value-initialization is a no-op: growing a vector with resize() leaves
/// the new elements uninitialized, while assign() and the fill constructor
/// still write their value.
///
/// It over-allocates from plain operator new by one alignment and keeps the
/// raw pointer just below the aligned block: the aligned operator new
/// (glibc memalign) splits a chunk per call and fragmented the heap by
/// ~3 MB of peak RSS in a streamed training run.
template <typename T>
struct AlignedUninitAllocator {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedUninitAllocator() = default;
  template <typename U>
  AlignedUninitAllocator(const AlignedUninitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    void* raw = ::operator new(n * sizeof(T) + kAlignment);
    // At least sizeof(void*) bytes below the aligned block hold `raw`:
    // operator new aligns to 16 bytes.
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + kAlignment) &
        ~(std::uintptr_t{kAlignment} - 1);
    reinterpret_cast<void**>(aligned)[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <typename U>
  bool operator==(const AlignedUninitAllocator<U>&) const noexcept {
    return true;
  }
};

/// Dense row-major float matrix owning contiguous heap storage.
///
/// Storage is a 64-byte-aligned vector so the TapeArena (nn/tape.h) can
/// recycle it across optimization steps via TakeStorage() and the recycling
/// constructors, and the GEMM kernels read rows of a lane-multiple width in
/// place. Rows are contiguous: element (r, c) lives at
/// `data()[r * cols() + c]`.
class Matrix {
 public:
  using Storage = std::vector<float, AlignedUninitAllocator<float>>;

  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f) {
    assert(rows >= 0 && cols >= 0);
  }
  /// Zero matrix reusing `recycled`'s heap storage when its capacity
  /// suffices (the TapeArena recycling path; see nn/tape.h).
  Matrix(int rows, int cols, Storage&& recycled)
      : rows_(rows), cols_(cols), data_(std::move(recycled)) {
    assert(rows >= 0 && cols >= 0);
    data_.assign(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f);
  }
  /// Tag type selecting the no-zero-fill recycling constructor.
  struct Uninit {};
  /// As the recycling constructor but WITHOUT any fill: the contents are
  /// unspecified, both the stale elements of `recycled` and the new ones
  /// past its old size (empty storage gives a fresh uninitialized matrix).
  /// For outputs every element of which is about to be overwritten. Under
  /// AddressSanitizer every element is set to quiet NaN instead, so an op
  /// that reads such an output before writing it fails its tests rather
  /// than reading a stale value.
  Matrix(int rows, int cols, Storage&& recycled, Uninit)
      : rows_(rows), cols_(cols), data_(std::move(recycled)) {
    assert(rows >= 0 && cols >= 0);
    data_.resize(static_cast<size_t>(rows) * static_cast<size_t>(cols));
#if defined(__SANITIZE_ADDRESS__)
    Fill(std::numeric_limits<float>::quiet_NaN());
#endif
  }

  /// A [rows, cols] matrix with every element set to `value`.
  static Matrix Constant(int rows, int cols, float value);

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
  Storage TakeStorage() noexcept {
    rows_ = 0;
    cols_ = 0;
    return std::move(data_);
  }

  /// "[RxC]", for diagnostics.
  std::string ShapeString() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  Storage data_;
};

// ---- GEMM entry points (kernels in nn/gemm_backend.cpp) ---------------------

/// out = a @ b. Shapes: [m,k] x [k,n] -> [m,n]. Every output element is
/// one MulAdd chain from zero over ascending k, whatever the operands'
/// values, the row's position or the number of rows.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// out = a^T @ b. Shapes: [k,m] x [k,n] -> [m,n]. The same kernel as
/// MatMul, reading a's columns as its rows (backward-pass GEMMs).
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);
/// out = a @ b^T. Shapes: [m,k] x [n,k] -> [m,n]. The same kernel as
/// MatMul over b packed transposed, so every element is the same MulAdd
/// chain as MatMul(a, b') for b' the transpose of b.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// In-place variant of MatMul writing into a caller-provided (typically
/// arena-recycled) matrix: `out` is reshaped (not zeroed: every element is
/// overwritten), then filled exactly like the allocating version — same
/// kernel, same per-element float sequence.
void MatMulInto(Matrix& out, const Matrix& a, const Matrix& b);

/// Fused backward accumulation: dst += a^T @ b without materializing the
/// product. Each output element's sum is formed in registers over
/// ascending p and added to `dst` once — bit-identical to
/// AccumulateInto(dst, MatMulTransposeA(a, b)) — while skipping the
/// temporary allocation and the extra O(mn) add pass.
void MatMulTransposeAAccum(Matrix& dst, const Matrix& a, const Matrix& b);
/// dst += a @ b^T (see MatMulTransposeAAccum): bit-identical to
/// AccumulateInto(dst, MatMulTransposeB(a, b)). b is packed transposed once
/// per call into a thread-local panel.
void MatMulTransposeBAccum(Matrix& dst, const Matrix& a, const Matrix& b);

// ---- Elementwise / reduction helpers ----------------------------------------

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

/// Max |a - b| over entries; shapes must match. NaN differences propagate
/// (the result is NaN) instead of being silently dropped.
float MaxAbsDiff(const Matrix& a, const Matrix& b);

}  // namespace tpuperf::nn
