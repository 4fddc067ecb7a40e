// The GEMM kernels and the nn::MatMul* entry points declared in
// nn/matrix.h: each entry point checks shapes and calls the register-tiled
// kernels directly.
#include "nn/gemm_backend.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/thread_pool.h"
#include "nn/matrix.h"
#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

// ---- Parallel dispatch ------------------------------------------------------

// Parallel dispatch threshold, in multiply-adds. Below this the GEMM
// finishes faster than the fork/join overhead costs.
constexpr std::int64_t kParallelFlops = 1 << 18;

// Row grain for parallel GEMMs: large enough that a chunk amortizes task
// dispatch, aligned to the 4-row register tile so every chunk boundary
// falls between full row blocks.
std::int64_t RowGrain(int m, std::int64_t flops_per_row) {
  std::int64_t rows = kParallelFlops / std::max<std::int64_t>(1, flops_per_row);
  rows = std::max<std::int64_t>(4, (rows + 3) / 4 * 4);
  return std::min<std::int64_t>(rows, m);
}

bool ShouldParallelize(std::int64_t m, std::int64_t k, std::int64_t n) {
  return m * k * n >= 2 * kParallelFlops &&
         core::ThreadPool::Global().size() > 1;
}

// ---- Built-in kernels --------------------------------------------------------

// Rows [i0, i1) of out = A @ b, where row i of A is the k floats
// a[i * row_stride + p * step]: a itself (row_stride k, step 1) or a^T
// (row_stride 1, step m, the backward's weight gradients).
//
// Register-tiled: 4 rows x 2 native-width vectors (then one vector; see
// nn/simd.h) accumulated over the full k extent in registers — each b row
// is loaded once per 4 output rows and every output element is written
// exactly once. The n % lanes leftover columns run as one more vector tile
// over a zero-padded panel of b with a masked store, so every element is
// the same MulAdd chain over ascending p, whatever the operands' values
// (there is no density dispatch). EVERY row runs through this one loop
// body, including the trailing partial block when (i1-i0) % 4 != 0: its
// missing lanes alias the last real row (identical arithmetic, stores
// masked off). A row's value therefore depends only on its own contents
// and b, never on its position or on the total row count; packed batches
// match per-kernel runs exactly (the serve::PredictionService parity
// contract), and parallel row chunks match the serial kernel at any
// boundary. With Accum the register sums are added onto `out` (fused
// backward accumulation).
template <bool Accum>
void TiledRowRange(const float* a, std::size_t row_stride, std::size_t step,
                   int k, const Matrix& b, Matrix& out, int i0, int i1) {
  const int n = b.cols();
  const int j_left = n - n % simd::kLanes;
  const float* panel =
      j_left < n ? simd::LeftoverPanel(b.data(), n, k, j_left, n) : nullptr;
  constexpr int kRowBlock = 4;
  for (int i = i0; i < i1; i += kRowBlock) {
    const int valid = std::min(kRowBlock, i1 - i);
    // Lane r of a partial block reads the last real row; only writes are
    // guarded, so the aliased reads are never stored through twice.
    const float* a_rows[kRowBlock];
    float* o_rows[kRowBlock];
    for (int r = 0; r < kRowBlock; ++r) {
      const size_t row = i + std::min(r, valid - 1);
      a_rows[r] = a + row * row_stride;
      o_rows[r] = out.data() + row * n;
    }
    simd::MulAddVectorCols<kRowBlock, 2, Accum>(a_rows, step, b.data(), n, k,
                                                n, o_rows, valid);
    if (panel != nullptr) {
      float* o_left[kRowBlock];
      for (int r = 0; r < kRowBlock; ++r) o_left[r] = o_rows[r] + j_left;
      simd::MulAddTile<kRowBlock, 1, Accum>(a_rows, step, panel, simd::kLanes,
                                            k, 0, o_left, valid, n - j_left);
    }
  }
}

// Row-partitions `range(lo, hi)` across the pool when the product is large.
// Chunk boundaries are aligned to the 4-row register tile and every row's
// arithmetic is independent of its chunk, so the result is bit-identical
// at any thread count.
template <typename Range>
void ForRows(int m, std::int64_t k, std::int64_t n, const Range& range) {
  if (ShouldParallelize(m, k, n)) {
    core::ParallelFor(0, m, RowGrain(m, 2ll * k * n),
                      [&](std::int64_t lo, std::int64_t hi) {
                        range(static_cast<int>(lo), static_cast<int>(hi));
                      });
  } else {
    range(0, m);
  }
}

// out = (or += with Accum) a @ b.
template <bool Accum>
void MatMulKernel(Matrix& out, const Matrix& a, const Matrix& b) {
  ForRows(a.rows(), a.cols(), b.cols(), [&](int lo, int hi) {
    TiledRowRange<Accum>(a.data(), a.cols(), 1, a.cols(), b, out, lo, hi);
  });
}

// out = (or += with Accum) a^T @ b.
template <bool Accum>
void TransposeAKernel(Matrix& out, const Matrix& a, const Matrix& b) {
  ForRows(a.cols(), a.rows(), b.cols(), [&](int lo, int hi) {
    TiledRowRange<Accum>(a.data(), 1, a.cols(), a.rows(), b, out, lo, hi);
  });
}

// Rows [i0, i1) of out = a @ b^T: 4x4 blocks of independent dot products
// give the ILP the single-accumulator loop lacked; every element is still
// one dot over ascending p, bitwise identical to the naive kernel.
void MatMulTransposeBRowRange(const Matrix& a, const Matrix& b, Matrix& out,
                              int i0, int i1) {
  const int k = a.cols(), n = b.rows();
  constexpr int kBlock = 4;
  int i = i0;
  for (; i + kBlock <= i1; i += kBlock) {
    const float* __restrict a0 = a.data() + static_cast<size_t>(i) * k;
    const float* __restrict a1 = a0 + k;
    const float* __restrict a2 = a1 + k;
    const float* __restrict a3 = a2 + k;
    int j = 0;
    for (; j + kBlock <= n; j += kBlock) {
      const float* __restrict b0 = b.data() + static_cast<size_t>(j) * k;
      const float* __restrict b1 = b0 + k;
      const float* __restrict b2 = b1 + k;
      const float* __restrict b3 = b2 + k;
      float acc[kBlock][kBlock] = {};
      for (int p = 0; p < k; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float bv0 = b0[p], bv1 = b1[p], bv2 = b2[p], bv3 = b3[p];
        acc[0][0] += av0 * bv0; acc[0][1] += av0 * bv1;
        acc[0][2] += av0 * bv2; acc[0][3] += av0 * bv3;
        acc[1][0] += av1 * bv0; acc[1][1] += av1 * bv1;
        acc[1][2] += av1 * bv2; acc[1][3] += av1 * bv3;
        acc[2][0] += av2 * bv0; acc[2][1] += av2 * bv1;
        acc[2][2] += av2 * bv2; acc[2][3] += av2 * bv3;
        acc[3][0] += av3 * bv0; acc[3][1] += av3 * bv1;
        acc[3][2] += av3 * bv2; acc[3][3] += av3 * bv3;
      }
      for (int ii = 0; ii < kBlock; ++ii) {
        for (int jj = 0; jj < kBlock; ++jj) out.at(i + ii, j + jj) = acc[ii][jj];
      }
    }
    for (; j < n; ++j) {
      const float* __restrict b_row = b.data() + static_cast<size_t>(j) * k;
      float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (int p = 0; p < k; ++p) {
        const float bv = b_row[p];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
      }
      out.at(i, j) = s0;
      out.at(i + 1, j) = s1;
      out.at(i + 2, j) = s2;
      out.at(i + 3, j) = s3;
    }
  }
  for (; i < i1; ++i) {
    const float* __restrict a_row = a.data() + static_cast<size_t>(i) * k;
    float* __restrict out_row = out.data() + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* __restrict b_row = b.data() + static_cast<size_t>(j) * k;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      out_row[j] = acc;
    }
  }
}

void TransposeBKernel(Matrix& out, const Matrix& a, const Matrix& b) {
  ForRows(a.rows(), a.cols(), b.rows(), [&](int lo, int hi) {
    MatMulTransposeBRowRange(a, b, out, lo, hi);
  });
}

// dst += a @ b^T. The transpose-the-small-operand trick: transposing b once
// lets the vectorized row kernel carry the GEMM instead of the scalar 4x4
// dot kernel — the backward's hottest product runs at forward-kernel
// throughput. Each element is the tiled kernel's MulAdd chain over
// ascending p, added onto dst. The transpose lives in a thread-local
// scratch (the same weight shapes recur step after step), so steady-state
// training allocates nothing here.
void TransposeBAccumKernel(Matrix& dst, const Matrix& a, const Matrix& b) {
  static thread_local Matrix bt_scratch;
  Matrix bt(b.cols(), b.rows(), bt_scratch.TakeStorage(), Matrix::Uninit{});
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) bt.at(j, i) = b.at(i, j);
  }
  MatMulKernel<true>(dst, a, bt);
  bt_scratch = std::move(bt);  // hand the buffer back for the next call
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
  Matrix out(a.rows(), b.cols());
  MatMulKernel<false>(out, a, b);
  return out;
}

void MatMulInto(Matrix& out, const Matrix& a, const Matrix& b) {
  CheckMatMulShapes(a, b, "MatMulInto");
  // Reshape only: MatMul overwrites every element.
  out = Matrix(a.rows(), b.cols(), out.TakeStorage(), Matrix::Uninit{});
  MatMulKernel<false>(out, a, b);
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeA");
  Matrix out(a.cols(), b.cols());
  TransposeAKernel<false>(out, a, b);
  return out;
}

void MatMulTransposeAAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeAAccum");
  CheckAccumShape(dst, a.cols(), b.cols(), "MatMulTransposeAAccum");
  TransposeAKernel<true>(dst, a, b);
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeB");
  Matrix out(a.rows(), b.rows());
  TransposeBKernel(out, a, b);
  return out;
}

void MatMulTransposeBAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeBAccum");
  CheckAccumShape(dst, a.rows(), b.rows(), "MatMulTransposeBAccum");
  TransposeBAccumKernel(dst, a, b);
}

}  // namespace tpuperf::nn
