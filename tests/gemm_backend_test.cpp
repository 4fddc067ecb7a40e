// GEMM backend dispatch (src/nn/gemm_backend.h): registry semantics,
// TPUPERF_GEMM_BACKEND env selection, six-entry-point parity of every
// registered backend against the built-in kernels (including empty, 1-row,
// and non-multiple-of-tile shapes), routed fallback for sparse/tiny
// operands, threaded parity at pool widths 1 and 4, and the parity-check
// mode. Parity tolerances are per backend (GemmBackend::ParityBound): the
// reduced-precision backends are checked against their own derived bounds
// while the f32 backends keep the strict kGemmParityRtol default, so one
// shared constant can never silently relax the strict checks.
#include "nn/gemm_backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "nn/matrix.h"
#include "nn/quant.h"
#include "nn/simd.h"

namespace tpuperf::nn {
namespace {

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

// Per-backend comparison: |got - want| <= max(atol, rtol * |want|). The
// default GemmParityTolerance is the strict f32 bound, identical to the
// historical shared kGemmParityRtol * max(1, |want|) check.
void ExpectNear(const Matrix& got, const Matrix& want, const char* what,
                GemmParityTolerance tol = GemmParityTolerance{}) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      const float g = got.at(i, j), w = want.at(i, j);
      ASSERT_LE(std::abs(g - w), std::max(tol.atol, tol.rtol * std::abs(w)))
          << what << " at (" << i << "," << j << "): " << g << " vs " << w;
    }
  }
}

void ExpectBitEqual(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " flat index " << i;
  }
}

// A second "external library": double-accumulating triple loops behind the
// RoutedGemmBackend policy. The double accumulation intentionally produces
// a *different* float sequence than the built-in kernels (like a real BLAS
// would), so parity here genuinely exercises the documented tolerance.
class NaiveBackend : public RoutedGemmBackend {
 public:
  std::string_view name() const noexcept override { return "naive-test"; }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < b.cols(); ++j) {
        double acc = 0;
        for (int p = 0; p < a.cols(); ++p) {
          acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
        }
        Store(out, i, j, acc, accumulate);
      }
    }
  }
  void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    for (int i = 0; i < a.cols(); ++i) {
      for (int j = 0; j < b.cols(); ++j) {
        double acc = 0;
        for (int p = 0; p < a.rows(); ++p) {
          acc += static_cast<double>(a.at(p, i)) * b.at(p, j);
        }
        Store(out, i, j, acc, accumulate);
      }
    }
  }
  void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < b.rows(); ++j) {
        double acc = 0;
        for (int p = 0; p < a.cols(); ++p) {
          acc += static_cast<double>(a.at(i, p)) * b.at(j, p);
        }
        Store(out, i, j, acc, accumulate);
      }
    }
  }

 private:
  static void Store(Matrix& out, int i, int j, double acc, bool accumulate) {
    if (accumulate) {
      out.at(i, j) += static_cast<float>(acc);
    } else {
      out.at(i, j) = static_cast<float>(acc);
    }
  }
};

// Deliberately wrong on the dense (library) path only: the routed
// sparse/tiny fallbacks still give correct answers, which is exactly what
// the routing tests rely on.
class BrokenBackend : public NaiveBackend {
 public:
  std::string_view name() const noexcept override { return "broken-test"; }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    NaiveBackend::DenseMatMul(out, a, b, accumulate);
    for (float& v : out.flat()) v *= 1.01f;
  }
};

void EnsureTestBackendsRegistered() {
  static const bool registered = [] {
    RegisterGemmBackend(std::make_unique<NaiveBackend>());
    RegisterGemmBackend(std::make_unique<BrokenBackend>());
    return true;
  }();
  (void)registered;
}

class GemmBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EnsureTestBackendsRegistered();
    SetGemmBackend("builtin");
    SetGemmParityCheck(false);
  }
  void TearDown() override {
    unsetenv("TPUPERF_GEMM_BACKEND");
    unsetenv("TPUPERF_GEMM_PARITY");
    SetGemmBackend("builtin");
    SetGemmParityCheck(false);
    core::ThreadPool::SetNumThreads(1);
  }
};

// ---- Registry semantics -----------------------------------------------------

TEST_F(GemmBackendTest, BuiltinIsAlwaysRegisteredAndFirst) {
  const std::vector<std::string> names = GemmBackendNames();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "builtin");
  EXPECT_TRUE(HasGemmBackend("builtin"));
  EXPECT_EQ(BuiltinGemmBackend().name(), "builtin");
}

TEST_F(GemmBackendTest, RegisteredBackendsAreListed) {
  EXPECT_TRUE(HasGemmBackend("naive-test"));
  EXPECT_TRUE(HasGemmBackend("broken-test"));
  EXPECT_FALSE(HasGemmBackend("no-such-backend"));
}

TEST_F(GemmBackendTest, ReducedPrecisionBackendsAreAlwaysRegistered) {
  EXPECT_TRUE(HasGemmBackend("quant-int8"));
  EXPECT_TRUE(HasGemmBackend("fp16"));
  EXPECT_EQ(ReducedPrecisionBackend(Precision::kInt8)->name(), "quant-int8");
  EXPECT_EQ(ReducedPrecisionBackend(Precision::kFp16)->name(), "fp16");
  EXPECT_EQ(ReducedPrecisionBackend(Precision::kFloat32), nullptr);
}

TEST_F(GemmBackendTest, ParityTolerancesAreSplitPerBackend) {
  // Widening the int8 bound must not touch what the strict backends are
  // held to. Every f32 backend keeps the default bound...
  const Matrix a = PseudoRandom(64, 48, 30);
  const Matrix b = PseudoRandom(48, 32, 31);
  for (const char* name : {"builtin", "naive-test", "broken-test"}) {
    const GemmParityTolerance tol =
        GemmBackendByName(name).ParityBound(a, b, 48);
    EXPECT_EQ(tol.rtol, kGemmParityRtol) << name;
    EXPECT_EQ(tol.atol, kGemmParityRtol) << name;
  }
  // ...while the reduced-precision backends widen only their own, by a
  // derived error bound that scales with the contraction extent.
  const GemmParityTolerance int8_tol =
      GemmBackendByName("quant-int8").ParityBound(a, b, 48);
  EXPECT_EQ(int8_tol.rtol, kQuantInt8ParityRtol);
  EXPECT_GT(int8_tol.atol,
            0.9 * QuantGemmErrorBound(48, MaxAbs(a), MaxAbs(b)));
  const GemmParityTolerance longer =
      GemmBackendByName("quant-int8").ParityBound(a, b, 480);
  EXPECT_GT(longer.atol, 5.0f * int8_tol.atol);
  const GemmParityTolerance fp16_tol =
      GemmBackendByName("fp16").ParityBound(a, b, 48);
  EXPECT_EQ(fp16_tol.rtol, kFp16ParityRtol);
  EXPECT_LT(fp16_tol.atol, int8_tol.atol);  // fp16 is the tighter mode
}

TEST_F(GemmBackendTest, DuplicateRegistrationThrows) {
  EXPECT_THROW(RegisterGemmBackend(std::make_unique<NaiveBackend>()),
               std::invalid_argument);
}

TEST_F(GemmBackendTest, SelectionRoundTrips) {
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
  SetGemmBackend("naive-test");
  EXPECT_EQ(CurrentGemmBackendName(), "naive-test");
  SetGemmBackend("builtin");
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
}

TEST_F(GemmBackendTest, UnknownSelectionThrowsListingRegistered) {
  try {
    SetGemmBackend("no-such-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("builtin"), std::string::npos)
        << "error should list registered backends: " << e.what();
  }
}

TEST_F(GemmBackendTest, UnregisterSemantics) {
  EXPECT_THROW(UnregisterGemmBackend("builtin"), std::invalid_argument);
  EXPECT_THROW(UnregisterGemmBackend("no-such-backend"),
               std::invalid_argument);

  class Throwaway : public NaiveBackend {
   public:
    std::string_view name() const noexcept override { return "throwaway"; }
  };
  RegisterGemmBackend(std::make_unique<Throwaway>());
  SetGemmBackend("throwaway");
  UnregisterGemmBackend("throwaway");
  // Removing the selected backend falls back to builtin.
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
  EXPECT_FALSE(HasGemmBackend("throwaway"));
}

// ---- Env selection ----------------------------------------------------------

TEST_F(GemmBackendTest, EnvSelectsBackend) {
  setenv("TPUPERF_GEMM_BACKEND", "naive-test", 1);
  ResetGemmBackendSelectionForTest();
  EXPECT_EQ(CurrentGemmBackendName(), "naive-test");
}

TEST_F(GemmBackendTest, EnvUnsetDefaultsToBuiltin) {
  unsetenv("TPUPERF_GEMM_BACKEND");
  ResetGemmBackendSelectionForTest();
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
}

TEST_F(GemmBackendTest, EnvUnknownBackendThrows) {
  setenv("TPUPERF_GEMM_BACKEND", "no-such-backend", 1);
  ResetGemmBackendSelectionForTest();
  EXPECT_THROW(CurrentGemmBackend(), std::invalid_argument);
  unsetenv("TPUPERF_GEMM_BACKEND");
  ResetGemmBackendSelectionForTest();
}

TEST_F(GemmBackendTest, ProgrammaticSelectionBeatsEnv) {
  setenv("TPUPERF_GEMM_BACKEND", "naive-test", 1);
  ResetGemmBackendSelectionForTest();
  SetGemmBackend("builtin");
  EXPECT_EQ(CurrentGemmBackendName(), "builtin");
}

TEST_F(GemmBackendTest, EnvArmsParityCheck) {
  setenv("TPUPERF_GEMM_PARITY", "1", 1);
  ResetGemmBackendSelectionForTest();
  CurrentGemmBackend();  // lazy env read
  EXPECT_TRUE(GemmParityCheckEnabled());
}

// ---- Six-entry-point parity -------------------------------------------------

struct GemmShape {
  int m, k, n;
  int sparsity;  // zero_out_of_10 applied to the left operand
};

// The parity grid: empty extents, single rows, shapes straddling the 4x16
// register tile, and products large enough to cross both the external
// dispatch threshold and the thread-pool threshold; the sparse rows
// exercise the routed backends' mostly-zero fallback.
const GemmShape kShapes[] = {
    {0, 4, 3, 0},   {4, 0, 3, 0},    {4, 3, 0, 0},     {1, 1, 1, 0},
    {1, 16, 16, 0}, {5, 7, 3, 0},    {33, 17, 29, 0},  {64, 48, 32, 0},
    {96, 64, 80, 8}, {200, 128, 160, 0},
};

// Runs all six entry points (plus the Into variants) of the *selected*
// backend and compares against the built-in backend invoked directly,
// within the selected backend's own ParityBound for each product (the
// contraction extent is s.k for every entry in this grid).
void CheckAllEntryPointsAgainstBuiltin(const GemmShape& s) {
  GemmBackend& builtin = BuiltinGemmBackend();
  GemmBackend& selected = CurrentGemmBackend();
  const Matrix a = PseudoRandom(s.m, s.k, 1, s.sparsity);
  const Matrix b = PseudoRandom(s.k, s.n, 2);
  const Matrix ta_a = PseudoRandom(s.k, s.m, 3, s.sparsity);  // [k,m]
  const Matrix tb_b = PseudoRandom(s.n, s.k, 4);              // [n,k]

  {
    const GemmParityTolerance tol = selected.ParityBound(a, b, s.k);
    Matrix want(s.m, s.n);
    builtin.MatMul(want, a, b);
    ExpectNear(MatMul(a, b), want, "MatMul", tol);
    Matrix into = PseudoRandom(2, 2, 99);  // wrong shape: must reshape
    MatMulInto(into, a, b);
    ExpectNear(into, want, "MatMulInto", tol);
  }
  {
    const GemmParityTolerance tol = selected.ParityBound(ta_a, b, s.k);
    Matrix want(s.m, s.n);
    builtin.MatMulTransposeA(want, ta_a, b);
    ExpectNear(MatMulTransposeA(ta_a, b), want, "MatMulTransposeA", tol);
  }
  {
    const GemmParityTolerance tol = selected.ParityBound(a, tb_b, s.k);
    Matrix want(s.m, s.n);
    builtin.MatMulTransposeB(want, a, tb_b);
    ExpectNear(MatMulTransposeB(a, tb_b), want, "MatMulTransposeB", tol);
  }
  {
    const GemmParityTolerance tol = selected.ParityBound(ta_a, b, s.k);
    Matrix want = PseudoRandom(s.m, s.n, 5);
    Matrix got = want;
    builtin.MatMulTransposeAAccum(want, ta_a, b);
    MatMulTransposeAAccum(got, ta_a, b);
    ExpectNear(got, want, "MatMulTransposeAAccum", tol);
  }
  {
    const GemmParityTolerance tol = selected.ParityBound(a, tb_b, s.k);
    Matrix want = PseudoRandom(s.m, s.n, 6);
    Matrix got = want;
    builtin.MatMulTransposeBAccum(want, a, tb_b);
    MatMulTransposeBAccum(got, a, tb_b);
    ExpectNear(got, want, "MatMulTransposeBAccum", tol);
  }
}

TEST_F(GemmBackendTest, EveryRegisteredBackendMatchesBuiltinOnAllShapes) {
  for (const std::string& name : GemmBackendNames()) {
    if (name == "broken-test") continue;  // wrong on purpose
    SCOPED_TRACE("backend=" + name);
    SetGemmBackend(name);
    for (const GemmShape& s : kShapes) {
      SCOPED_TRACE("shape=" + std::to_string(s.m) + "x" + std::to_string(s.k) +
                   "x" + std::to_string(s.n) + " sparsity=" +
                   std::to_string(s.sparsity));
      CheckAllEntryPointsAgainstBuiltin(s);
    }
  }
}

TEST_F(GemmBackendTest, BuiltinDispatchIsBitIdenticalToDirectCall) {
  // Dispatching through the wrapper must not change a single bit of the
  // built-in results (the wrapper only adds shape checks + zeroing, which
  // the direct path replicates here).
  const Matrix a = PseudoRandom(33, 17, 1);
  const Matrix b = PseudoRandom(17, 29, 2);
  Matrix want(33, 29);
  BuiltinGemmBackend().MatMul(want, a, b);
  ExpectBitEqual(MatMul(a, b), want, "builtin MatMul");
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
// chain onto dst. That holds in every column (the n % simd::kLanes leftover
// columns run as a vector tile over a zero-padded panel) and every row (the
// partial row block aliases a real row). The shapes straddle every column
// block width (1, 2 and 4 vectors at 16-, 32- and 64-byte lanes) and the
// partial row block. The left operands are dense or 80% zeros: the
// builtin kernels have no density dispatch, so zeros change no element's
// chain.
TEST_F(GemmBackendTest, BuiltinKernelsEqualScalarFmaChains) {
  std::uint64_t seed = 100;
  for (const int zeros : {0, 8}) {
    for (const int m : {1, 3, 4, 5, 13}) {
      for (const int n : {1, 15, 16, 17, 31, 32, 33, 48, 128}) {
        for (const int k : {1, 7, 69}) {
          SCOPED_TRACE("zeros=" + std::to_string(zeros) + "/10 m=" +
                       std::to_string(m) + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k));
          const Matrix a = PseudoRandom(m, k, ++seed, zeros);
          const Matrix a_t = PseudoRandom(k, m, ++seed, zeros);
          const Matrix b = PseudoRandom(k, n, ++seed);
          const Matrix b_t = PseudoRandom(n, k, ++seed);
          const Matrix dst = PseudoRandom(m, n, ++seed);
          const Matrix mm = MatMul(a, b);
          const Matrix ta = MatMulTransposeA(a_t, b);
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
              ASSERT_EQ(ta.at(i, j), atb) << "TransposeA at " << i << "," << j;
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

// ---- Routed fallbacks -------------------------------------------------------

TEST_F(GemmBackendTest, RoutedBackendFallsBackToBuiltinForSparseOperands) {
  // >=70% zeros and >=256 elements: the routed policy must use the builtin
  // kernels, so the result is bit-identical, not merely close.
  SetGemmBackend("naive-test");
  const Matrix a = PseudoRandom(96, 64, 7, /*zero_out_of_10=*/8);
  const Matrix b = PseudoRandom(64, 80, 8);
  Matrix want(96, 80);
  BuiltinGemmBackend().MatMul(want, a, b);
  ExpectBitEqual(MatMul(a, b), want, "sparse fallback");
}

TEST_F(GemmBackendTest, RoutedBackendFallsBackToBuiltinForTinyOperands) {
  // 5*7*3 multiply-adds is far below kExternalDispatchFlops: builtin path,
  // bit-identical. The broken backend proves the library hook never ran.
  SetGemmBackend("broken-test");
  const Matrix a = PseudoRandom(5, 7, 9);
  const Matrix b = PseudoRandom(7, 3, 10);
  Matrix want(5, 3);
  BuiltinGemmBackend().MatMul(want, a, b);
  ExpectBitEqual(MatMul(a, b), want, "tiny fallback");
}

// ---- Threaded parity --------------------------------------------------------

TEST_F(GemmBackendTest, PoolWidthDoesNotChangeAnyBackendsResults) {
  // Shapes above the parallel threshold (m*k*n >= 2^19) so the builtin
  // kernels actually shard. Builtin results must be bit-identical across
  // widths; routed backends must be too (the library path never consults
  // the pool, the fallback paths shard deterministically).
  // The reduced-precision backends are covered too: int8 accumulates in
  // exact int32 (so row partitioning cannot change a bit) and fp16
  // delegates to the deterministic builtin kernels after operand rounding.
  const Matrix a = PseudoRandom(200, 128, 13);
  const Matrix sparse_a = PseudoRandom(200, 128, 14, 8);
  const Matrix b = PseudoRandom(128, 160, 15);
  for (const std::string& name :
       {std::string("builtin"), std::string("naive-test"),
        std::string("quant-int8"), std::string("fp16")}) {
    SCOPED_TRACE("backend=" + name);
    SetGemmBackend(name);
    core::ThreadPool::SetNumThreads(1);
    const Matrix dense1 = MatMul(a, b);
    const Matrix sparse1 = MatMul(sparse_a, b);
    Matrix accum1 = PseudoRandom(128, 160, 16);
    MatMulTransposeAAccum(accum1, a, PseudoRandom(200, 160, 17));
    core::ThreadPool::SetNumThreads(4);
    const Matrix dense4 = MatMul(a, b);
    const Matrix sparse4 = MatMul(sparse_a, b);
    Matrix accum4 = PseudoRandom(128, 160, 16);
    MatMulTransposeAAccum(accum4, a, PseudoRandom(200, 160, 17));
    ExpectBitEqual(dense4, dense1, "dense MatMul across widths");
    ExpectBitEqual(sparse4, sparse1, "sparse MatMul across widths");
    ExpectBitEqual(accum4, accum1, "TransposeAAccum across widths");
  }
}

TEST_F(GemmBackendTest, ThreadedBackendStaysWithinParityOfBuiltin) {
  core::ThreadPool::SetNumThreads(4);
  SetGemmBackend("naive-test");
  for (const GemmShape& s : kShapes) {
    SCOPED_TRACE("shape=" + std::to_string(s.m) + "x" + std::to_string(s.k) +
                 "x" + std::to_string(s.n));
    CheckAllEntryPointsAgainstBuiltin(s);
  }
}

// ---- Parity-check mode ------------------------------------------------------

TEST_F(GemmBackendTest, ParityModePassesCorrectBackends) {
  SetGemmBackend("naive-test");
  SetGemmParityCheck(true);
  const Matrix a = PseudoRandom(64, 48, 18);
  const Matrix b = PseudoRandom(48, 32, 19);
  EXPECT_NO_THROW(MatMul(a, b));
  Matrix dst(64, 32);
  EXPECT_NO_THROW(MatMulTransposeBAccum(dst, a, PseudoRandom(32, 48, 20)));
}

TEST_F(GemmBackendTest, ParityModeCatchesWrongResults) {
  SetGemmBackend("broken-test");
  SetGemmParityCheck(true);
  // Large + dense so the broken dense hook (not a fallback) runs.
  const Matrix a = PseudoRandom(64, 48, 21);
  const Matrix b = PseudoRandom(48, 32, 22);
  EXPECT_THROW(MatMul(a, b), GemmParityError);
}

TEST_F(GemmBackendTest, ParityModeIsFreeOnBuiltin) {
  SetGemmBackend("builtin");
  SetGemmParityCheck(true);
  const Matrix a = PseudoRandom(64, 48, 23);
  const Matrix b = PseudoRandom(48, 32, 24);
  Matrix want(64, 32);
  BuiltinGemmBackend().MatMul(want, a, b);
  ExpectBitEqual(MatMul(a, b), want, "builtin under parity mode");
}

}  // namespace
}  // namespace tpuperf::nn
