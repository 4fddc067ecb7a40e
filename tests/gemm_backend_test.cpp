// The GEMM entry points of nn/matrix.h on the builtin kernels
// (src/nn/gemm_backend.cpp): all five against a double-accumulating
// reference (including empty, 1-row, and non-multiple-of-tile shapes),
// and every element as one scalar FMA chain.
#include "nn/gemm_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "nn/matrix.h"
#include "nn/tape.h"

namespace tpuperf::nn {
namespace {

// Relative bound of the reference comparison: the double-accumulating
// reference sums in a different association than the f32 kernels; for the
// operand magnitudes and k <= 128 here the drift stays well under 1e-4.
constexpr float kReferenceRtol = 1e-4f;

Matrix PseudoRandom(int rows, int cols, std::uint64_t seed,
                    int zero_out_of_10 = 0) {
  Matrix m(rows, cols);
  std::uint64_t s = seed * 2654435761ull + 12345;
  for (float& v : m.flat()) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    if (zero_out_of_10 > 0 && static_cast<int>(s % 10) < zero_out_of_10) {
      v = 0.0f;
      continue;
    }
    v = static_cast<float>(static_cast<std::int64_t>(s % 2001) - 1000) /
        250.0f;
  }
  return m;
}

// |got - want| <= kReferenceRtol * max(1, |want|).
void ExpectNear(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      const float g = got.at(i, j), w = want.at(i, j);
      ASSERT_LE(std::abs(g - w),
                kReferenceRtol * std::max(1.0f, std::abs(w)))
          << what << " at (" << i << "," << j << "): " << g << " vs " << w;
    }
  }
}

// dst + op(a) @ op(b), each element summed in double over ascending p, where
// op transposes its operand when the flag is set.
Matrix Reference(const Matrix& a, bool transpose_a, const Matrix& b,
                 bool transpose_b, Matrix dst) {
  const int k = transpose_a ? a.rows() : a.cols();
  for (int i = 0; i < dst.rows(); ++i) {
    for (int j = 0; j < dst.cols(); ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p) {
        const float av = transpose_a ? a.at(p, i) : a.at(i, p);
        const float bv = transpose_b ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      dst.at(i, j) += static_cast<float>(acc);
    }
  }
  return dst;
}

TEST(GemmBackendTest, NameIsBuiltin) {
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
}

// ---- Five entry points against the reference --------------------------------

struct GemmShape {
  int m, k, n;
  int sparsity;  // zero_out_of_10 applied to the left operand
};

// Empty extents, single rows, shapes straddling the register tile, and
// larger products.
const GemmShape kShapes[] = {
    {0, 4, 3, 0},   {4, 0, 3, 0},    {4, 3, 0, 0},     {1, 1, 1, 0},
    {1, 16, 16, 0}, {5, 7, 3, 0},    {33, 17, 29, 0},  {64, 48, 32, 0},
    {96, 64, 80, 8}, {200, 128, 160, 0},
};

TEST(GemmBackendTest, EveryEntryPointMatchesReferenceOnAllShapes) {
  for (const GemmShape& s : kShapes) {
    SCOPED_TRACE("shape=" + std::to_string(s.m) + "x" + std::to_string(s.k) +
                 "x" + std::to_string(s.n) + " sparsity=" +
                 std::to_string(s.sparsity));
    const Matrix a = PseudoRandom(s.m, s.k, 1, s.sparsity);
    const Matrix b = PseudoRandom(s.k, s.n, 2);
    const Matrix ta_a = PseudoRandom(s.k, s.m, 3, s.sparsity);  // [k,m]
    const Matrix tb_b = PseudoRandom(s.n, s.k, 4);              // [n,k]
    const Matrix zeros(s.m, s.n);

    const Matrix ab = Reference(a, false, b, false, zeros);
    ExpectNear(MatMul(a, b), ab, "MatMul");
    Matrix into = PseudoRandom(2, 2, 99);  // wrong shape: must reshape
    MatMulInto(into, a, b);
    ExpectNear(into, ab, "MatMulInto");
    ExpectNear(MatMulTransposeA(ta_a, b),
               Reference(ta_a, true, b, false, zeros), "MatMulTransposeA");
    ExpectNear(MatMulTransposeB(a, tb_b),
               Reference(a, false, tb_b, true, zeros), "MatMulTransposeB");

    Matrix ta_acc = PseudoRandom(s.m, s.n, 5);
    const Matrix ta_want = Reference(ta_a, true, b, false, ta_acc);
    MatMulTransposeAAccum(ta_acc, ta_a, b);
    ExpectNear(ta_acc, ta_want, "MatMulTransposeAAccum");
    Matrix tb_acc = PseudoRandom(s.m, s.n, 6);
    const Matrix tb_want = Reference(a, false, tb_b, true, tb_acc);
    MatMulTransposeBAccum(tb_acc, a, tb_b);
    ExpectNear(tb_acc, tb_want, "MatMulTransposeBAccum");
  }
}

// ---- Exactness against a scalar reference -----------------------------------

// The builtin kernels' per-element arithmetic: a multiply-add, fused
// exactly when the target has FMA.
float MulAdd(float a, float b, float acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// Every output element is one MulAdd chain over ascending p: a plain
// product starts it from zero, and an accumulating one adds the finished
// chain onto dst. That holds for all five entry points, in every column (a
// right operand with leftover columns, or one read transposed, is packed
// into a zero-padded panel) and every row (row blocks of every height). The
// shapes straddle every column block width (1, 2 and 4 vectors at 16-, 32-
// and 64-byte lanes) and row block height, and include the training
// step's shapes (k = 203; n = 69 and 96). The left operands are dense or
// 80% zeros: the builtin kernels have no density dispatch, so zeros change
// no element's chain.
TEST(GemmBackendTest, BuiltinKernelsEqualScalarFmaChains) {
  std::uint64_t seed = 100;
  for (const int zeros : {0, 8}) {
    for (const int m : {1, 3, 4, 5, 13}) {
      for (const int n : {1, 15, 16, 17, 31, 32, 33, 48, 69, 96, 128}) {
        for (const int k : {1, 7, 69, 203}) {
          SCOPED_TRACE("zeros=" + std::to_string(zeros) + "/10 m=" +
                       std::to_string(m) + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k));
          const Matrix a = PseudoRandom(m, k, ++seed, zeros);
          const Matrix a_t = PseudoRandom(k, m, ++seed, zeros);
          const Matrix b = PseudoRandom(k, n, ++seed);
          const Matrix b_t = PseudoRandom(n, k, ++seed);
          const Matrix dst = PseudoRandom(m, n, ++seed);
          const Matrix mm = MatMul(a, b);
          Matrix into = PseudoRandom(m + 1, n, ++seed);  // must reshape
          MatMulInto(into, a, b);
          const Matrix ta = MatMulTransposeA(a_t, b);
          const Matrix tb = MatMulTransposeB(a, b_t);
          Matrix ta_acc = dst, tb_acc = dst;
          MatMulTransposeAAccum(ta_acc, a_t, b);
          MatMulTransposeBAccum(tb_acc, a, b_t);
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              float ab = 0, atb = 0, abt = 0;
              for (int p = 0; p < k; ++p) {
                ab = MulAdd(a.at(i, p), b.at(p, j), ab);
                atb = MulAdd(a_t.at(p, i), b.at(p, j), atb);
                abt = MulAdd(a.at(i, p), b_t.at(j, p), abt);
              }
              ASSERT_EQ(mm.at(i, j), ab) << "MatMul at " << i << "," << j;
              ASSERT_EQ(into.at(i, j), ab) << "MatMulInto at " << i << "," << j;
              ASSERT_EQ(ta.at(i, j), atb) << "TransposeA at " << i << "," << j;
              ASSERT_EQ(tb.at(i, j), abt) << "TransposeB at " << i << "," << j;
              ASSERT_EQ(ta_acc.at(i, j), dst.at(i, j) + atb)
                  << "TransposeAAccum at " << i << "," << j;
              ASSERT_EQ(tb_acc.at(i, j), dst.at(i, j) + abt)
                  << "TransposeBAccum at " << i << "," << j;
            }
          }
        }
      }
    }
  }
}

// ---- Storage alignment ------------------------------------------------------

bool Aligned64(const Matrix& m) {
  return reinterpret_cast<std::uintptr_t>(m.data()) % 64 == 0;
}

// Matrix storage is 64-byte aligned however it was made: fresh, recycled
// through a TapeArena (zeroed or not), or reshaped by MatMulInto, so the
// kernels read whole-vector rows of lane-multiple width in place.
TEST(GemmBackendTest, OutputsAre64ByteAligned) {
  const Matrix a = PseudoRandom(13, 203, 31);
  const Matrix b = PseudoRandom(203, 96, 32);
  EXPECT_TRUE(Aligned64(Matrix(3, 5)));
  EXPECT_TRUE(Aligned64(MatMul(a, b)));
  EXPECT_TRUE(Aligned64(MatMulTransposeB(a, PseudoRandom(69, 203, 33))));
  Matrix into(1, 1);
  MatMulInto(into, a, b);
  EXPECT_TRUE(Aligned64(into));
  TapeArena arena;
  for (int step = 0; step < 3; ++step) {
    Matrix zeroed = arena.Acquire(7, 33);
    Matrix uninit = arena.AcquireUninit(13, 96);
    EXPECT_TRUE(Aligned64(zeroed)) << "step " << step;
    EXPECT_TRUE(Aligned64(uninit)) << "step " << step;
    MatMulInto(uninit, a, b);
    EXPECT_TRUE(Aligned64(uninit)) << "step " << step;
    arena.Recycle(std::move(zeroed));
    arena.Recycle(std::move(uninit));
  }
  EXPECT_GT(arena.recycled(), 0u);
}

// Uniform values in [-1, 1] from std::mt19937_64.
Matrix UniformRandom(int rows, int cols, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = dist(rng);
  return m;
}

// The register-tiled transpose kernels must agree with the textbook loops.
TEST(GemmBackendTest, TiledTransposeKernelsMatchReference) {
  const Matrix a = UniformRandom(70, 130, 11);  // odd sizes hit remainders
  const Matrix b = UniformRandom(70, 37, 12);
  Matrix ref_ta(a.cols(), b.cols());
  for (int p = 0; p < a.rows(); ++p) {
    for (int i = 0; i < a.cols(); ++i) {
      for (int j = 0; j < b.cols(); ++j) {
        ref_ta.at(i, j) += a.at(p, i) * b.at(p, j);
      }
    }
  }
  const Matrix ta = MatMulTransposeA(a, b);
  ASSERT_TRUE(ta.same_shape(ref_ta));
  EXPECT_LE(MaxAbsDiff(ta, ref_ta), 1e-5f);

  const Matrix c = UniformRandom(41, 53, 13);
  const Matrix d = UniformRandom(29, 53, 14);
  Matrix ref_tb(c.rows(), d.rows());
  for (int i = 0; i < c.rows(); ++i) {
    for (int j = 0; j < d.rows(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < c.cols(); ++p) acc += c.at(i, p) * d.at(j, p);
      ref_tb.at(i, j) = acc;
    }
  }
  const Matrix tb = MatMulTransposeB(c, d);
  ASSERT_TRUE(tb.same_shape(ref_tb));
  EXPECT_LE(MaxAbsDiff(tb, ref_tb), 1e-5f);
}

}  // namespace
}  // namespace tpuperf::nn
