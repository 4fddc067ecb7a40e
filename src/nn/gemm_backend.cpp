// GEMM backend dispatch: the built-in register-tiled kernels (moved here
// from nn/matrix.cpp so all GEMM code lives in one translation unit), the
// backend registry/selection, the routed external backends (CBLAS, Eigen —
// compile-gated), and the nn::MatMul* entry-point wrappers themselves.
#include "nn/gemm_backend.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.h"
#include "nn/quant.h"
#include "nn/simd.h"

#ifdef TPUPERF_WITH_BLAS
#include <cblas.h>
#endif
#ifdef TPUPERF_WITH_EIGEN
#include <Eigen/Core>
#endif

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
void MatMulDispatch(Matrix& out, const Matrix& a, const Matrix& b) {
  ForRows(a.rows(), a.cols(), b.cols(), [&](int lo, int hi) {
    TiledRowRange<Accum>(a.data(), a.cols(), 1, a.cols(), b, out, lo, hi);
  });
}

// out = (or += with Accum) a^T @ b.
template <bool Accum>
void MatMulTransposeADispatch(const Matrix& a, const Matrix& b, Matrix& out) {
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

void MatMulTransposeBDispatch(const Matrix& a, const Matrix& b, Matrix& out) {
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
void MatMulTransposeBAccumDispatch(Matrix& dst, const Matrix& a,
                                   const Matrix& b) {
  static thread_local Matrix bt_scratch;
  Matrix bt(b.cols(), b.rows(), bt_scratch.TakeStorage(), Matrix::Uninit{});
  for (int i = 0; i < b.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) bt.at(j, i) = b.at(i, j);
  }
  MatMulDispatch<true>(dst, a, bt);
  bt_scratch = std::move(bt);  // hand the buffer back for the next call
}

// ---- The built-in backend ---------------------------------------------------

class BuiltinBackend final : public GemmBackend {
 public:
  std::string_view name() const noexcept override { return "builtin"; }

  void MatMul(Matrix& out, const Matrix& a, const Matrix& b) override {
    MatMulDispatch<false>(out, a, b);
  }
  void MatMulTransposeA(Matrix& out, const Matrix& a,
                        const Matrix& b) override {
    MatMulTransposeADispatch<false>(a, b, out);
  }
  void MatMulTransposeB(Matrix& out, const Matrix& a,
                        const Matrix& b) override {
    MatMulTransposeBDispatch(a, b, out);
  }
  void MatMulTransposeAAccum(Matrix& dst, const Matrix& a,
                             const Matrix& b) override {
    MatMulTransposeADispatch<true>(a, b, dst);
  }
  void MatMulTransposeBAccum(Matrix& dst, const Matrix& a,
                             const Matrix& b) override {
    MatMulTransposeBAccumDispatch(dst, a, b);
  }
};

}  // namespace

// ---- Routed external backends ----------------------------------------------

namespace {

// The routing policy's density check: left operands at >=70% exact zeros
// (masked attention weights, post-ReLU gradients) stay on the built-in
// kernels. The scan is O(size), ~1/n of the GEMM cost; tiny operands skip
// it.
bool MostlyZero(const Matrix& a) {
  if (a.size() < 256) return false;
  std::size_t zeros = 0;
  for (const float v : a.flat()) zeros += v == 0.0f;
  return zeros * 10 >= a.size() * 7;
}

// True when a product with left operand `a` and m*k*n multiply-adds goes to
// the library: large enough to pay for the call and not mostly zero.
bool RouteToLibrary(const Matrix& a, std::int64_t m, std::int64_t k,
                    std::int64_t n) {
  return m * k * n >= RoutedGemmBackend::kExternalDispatchFlops &&
         !MostlyZero(a);
}

}  // namespace

void RoutedGemmBackend::MatMul(Matrix& out, const Matrix& a, const Matrix& b) {
  if (!RouteToLibrary(a, a.rows(), a.cols(), b.cols())) {
    MatMulDispatch<false>(out, a, b);
    return;
  }
  DenseMatMul(out, a, b, /*accumulate=*/false);
}

void RoutedGemmBackend::MatMulTransposeA(Matrix& out, const Matrix& a,
                                         const Matrix& b) {
  if (!RouteToLibrary(a, a.cols(), a.rows(), b.cols())) {
    MatMulTransposeADispatch<false>(a, b, out);
    return;
  }
  DenseTransposeA(out, a, b, /*accumulate=*/false);
}

void RoutedGemmBackend::MatMulTransposeB(Matrix& out, const Matrix& a,
                                         const Matrix& b) {
  // No density check: a large product always goes to the library.
  if (a.rows() * static_cast<std::int64_t>(a.cols()) * b.rows() <
      kExternalDispatchFlops) {
    MatMulTransposeBDispatch(a, b, out);
    return;
  }
  DenseTransposeB(out, a, b, /*accumulate=*/false);
}

void RoutedGemmBackend::MatMulTransposeAAccum(Matrix& dst, const Matrix& a,
                                              const Matrix& b) {
  if (!RouteToLibrary(a, a.cols(), a.rows(), b.cols())) {
    MatMulTransposeADispatch<true>(a, b, dst);
    return;
  }
  DenseTransposeA(dst, a, b, /*accumulate=*/true);
}

void RoutedGemmBackend::MatMulTransposeBAccum(Matrix& dst, const Matrix& a,
                                              const Matrix& b) {
  if (!RouteToLibrary(a, a.rows(), a.cols(), b.rows())) {
    MatMulTransposeBAccumDispatch(dst, a, b);
    return;
  }
  DenseTransposeB(dst, a, b, /*accumulate=*/true);
}

// ---- CBLAS backend ----------------------------------------------------------

#ifdef TPUPERF_WITH_BLAS
namespace {

// Routes large dense products to cblas_sgemm. All operands are row-major;
// the transpose flags map straight onto CBLAS op arguments, so no copies
// are made. Accumulation is beta=1 (`out` holds prior gradients); the
// non-accumulating calls use beta=0, which overwrites `out`.
class BlasBackend final : public RoutedGemmBackend {
 public:
  std::string_view name() const noexcept override { return "blas"; }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, a.rows(), b.cols(),
                a.cols(), 1.0f, a.data(), a.cols(), b.data(), b.cols(),
                accumulate ? 1.0f : 0.0f, out.data(), b.cols());
  }
  void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    // a is stored [k, m]; CblasTrans reads it as [m, k] with lda = m.
    cblas_sgemm(CblasRowMajor, CblasTrans, CblasNoTrans, a.cols(), b.cols(),
                a.rows(), 1.0f, a.data(), a.cols(), b.data(), b.cols(),
                accumulate ? 1.0f : 0.0f, out.data(), b.cols());
  }
  void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    // b is stored [n, k]; CblasTrans reads it as [k, n] with ldb = k.
    cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasTrans, a.rows(), b.rows(),
                a.cols(), 1.0f, a.data(), a.cols(), b.data(), b.cols(),
                accumulate ? 1.0f : 0.0f, out.data(), b.rows());
  }
};

}  // namespace
#endif  // TPUPERF_WITH_BLAS

// ---- Eigen backend ----------------------------------------------------------

#ifdef TPUPERF_WITH_EIGEN
namespace {

using EigenRowMat =
    Eigen::Matrix<float, Eigen::Dynamic, Eigen::Dynamic, Eigen::RowMajor>;
using ConstMap = Eigen::Map<const EigenRowMat>;
using MutMap = Eigen::Map<EigenRowMat>;

// Routes large dense products to Eigen's expression-template GEMM (which
// vectorizes and cache-blocks). Maps alias the Matrix storage directly; no
// copies.
class EigenBackend final : public RoutedGemmBackend {
 public:
  std::string_view name() const noexcept override { return "eigen"; }

 protected:
  void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                   bool accumulate) override {
    ConstMap am(a.data(), a.rows(), a.cols());
    ConstMap bm(b.data(), b.rows(), b.cols());
    MutMap om(out.data(), out.rows(), out.cols());
    if (accumulate) {
      om.noalias() += am * bm;
    } else {
      om.noalias() = am * bm;
    }
  }
  void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    ConstMap am(a.data(), a.rows(), a.cols());
    ConstMap bm(b.data(), b.rows(), b.cols());
    MutMap om(out.data(), out.rows(), out.cols());
    if (accumulate) {
      om.noalias() += am.transpose() * bm;
    } else {
      om.noalias() = am.transpose() * bm;
    }
  }
  void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                       bool accumulate) override {
    ConstMap am(a.data(), a.rows(), a.cols());
    ConstMap bm(b.data(), b.rows(), b.cols());
    MutMap om(out.data(), out.rows(), out.cols());
    if (accumulate) {
      om.noalias() += am * bm.transpose();
    } else {
      om.noalias() = am * bm.transpose();
    }
  }
};

}  // namespace
#endif  // TPUPERF_WITH_EIGEN

// ---- Registry + selection ---------------------------------------------------

namespace {

struct Registry {
  std::mutex mu;
  // The builtin backend lives outside the (mutable) vector so
  // BuiltinGemmBackend() — called on every routed/parity GEMM, possibly
  // from pool workers — can read it without the mutex: it is constructed
  // once and never moved or destroyed.
  BuiltinBackend builtin;
  // Registered non-builtin backends, guarded by `mu`. The unique_ptr
  // pointees are stable across registration (only Unregister destroys
  // one, and that is a test hook; see the header).
  std::vector<std::unique_ptr<GemmBackend>> extras;
  std::atomic<GemmBackend*> current{nullptr};  // null until first selection
  bool env_consumed = false;
  std::atomic<bool> parity{false};

  Registry() {
#ifdef TPUPERF_WITH_BLAS
    extras.push_back(std::make_unique<BlasBackend>());
#endif
#ifdef TPUPERF_WITH_EIGEN
    extras.push_back(std::make_unique<EigenBackend>());
#endif
    // The reduced-precision backends (nn/quant.cpp) are always available,
    // like builtin — so TPUPERF_GEMM_BACKEND=quant-int8 works without a
    // compile flag and the per-backend bench/parity sweeps cover them.
    quant_internal::AppendReducedPrecisionBackends(extras);
  }

  GemmBackend* FindLocked(std::string_view name) {
    if (name == builtin.name()) return &builtin;
    for (const auto& backend : extras) {
      if (backend->name() == name) return backend.get();
    }
    return nullptr;
  }

  std::string NamesForErrorLocked() {
    std::string names{builtin.name()};
    for (const auto& backend : extras) {
      names += ", ";
      names += backend->name();
    }
    return names;
  }

  // Reads TPUPERF_GEMM_PARITY (and, when `select` and no programmatic
  // choice was made yet, TPUPERF_GEMM_BACKEND). Throws on an unknown
  // backend name so misconfiguration fails loudly at the first GEMM.
  void ConsumeEnvLocked(bool select) {
    if (env_consumed) return;
    env_consumed = true;
    if (const char* p = std::getenv("TPUPERF_GEMM_PARITY");
        p != nullptr && p[0] != '\0' && !(p[0] == '0' && p[1] == '\0')) {
      parity.store(true, std::memory_order_relaxed);
    }
    if (!select) return;
    if (const char* name = std::getenv("TPUPERF_GEMM_BACKEND");
        name != nullptr && name[0] != '\0') {
      GemmBackend* backend = FindLocked(name);
      if (backend == nullptr) {
        throw std::invalid_argument(
            std::string("TPUPERF_GEMM_BACKEND=") + name +
            ": unknown GEMM backend (registered: " + NamesForErrorLocked() +
            ")");
      }
      current.store(backend, std::memory_order_release);
    }
  }
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;  // leaked: outlive all statics
  return *registry;
}

}  // namespace

GemmParityTolerance GemmBackend::ParityBound(const Matrix& a, const Matrix& b,
                                             long long inner_extent) const {
  (void)a;
  (void)b;
  (void)inner_extent;
  // max(kGemmParityRtol, kGemmParityRtol * |ref|) — exactly the historical
  // kGemmParityRtol * max(1, |ref|) bound every f32 backend was held to.
  return GemmParityTolerance{};
}

GemmBackend& BuiltinGemmBackend() {
  return GetRegistry().builtin;  // immutable after construction: no lock
}

void RegisterGemmBackend(std::unique_ptr<GemmBackend> backend) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.FindLocked(backend->name()) != nullptr) {
    throw std::invalid_argument("RegisterGemmBackend: duplicate name \"" +
                                std::string(backend->name()) + "\"");
  }
  r.extras.push_back(std::move(backend));
}

void UnregisterGemmBackend(std::string_view name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (name == "builtin") {
    throw std::invalid_argument(
        "UnregisterGemmBackend: \"builtin\" cannot be removed");
  }
  for (auto it = r.extras.begin(); it != r.extras.end(); ++it) {
    if ((*it)->name() != name) continue;
    if (r.current.load(std::memory_order_acquire) == it->get()) {
      r.current.store(&r.builtin, std::memory_order_release);
    }
    r.extras.erase(it);
    return;
  }
  throw std::invalid_argument("UnregisterGemmBackend: unknown name \"" +
                              std::string(name) + "\"");
}

std::vector<std::string> GemmBackendNames() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.extras.size() + 1);
  names.emplace_back(r.builtin.name());
  for (const auto& backend : r.extras) {
    names.emplace_back(backend->name());
  }
  return names;
}

bool HasGemmBackend(std::string_view name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.FindLocked(name) != nullptr;
}

GemmBackend& GemmBackendByName(std::string_view name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  GemmBackend* backend = r.FindLocked(name);
  if (backend == nullptr) {
    throw std::invalid_argument("GemmBackendByName: unknown backend \"" +
                                std::string(name) + "\" (registered: " +
                                r.NamesForErrorLocked() + ")");
  }
  return *backend;
}

void SetGemmBackend(std::string_view name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  GemmBackend* backend = r.FindLocked(name);
  if (backend == nullptr) {
    throw std::invalid_argument("SetGemmBackend: unknown backend \"" +
                                std::string(name) + "\" (registered: " +
                                r.NamesForErrorLocked() + ")");
  }
  // A programmatic selection supersedes TPUPERF_GEMM_BACKEND; still consume
  // the parity env so TPUPERF_GEMM_PARITY works regardless of call order.
  r.ConsumeEnvLocked(/*select=*/false);
  r.current.store(backend, std::memory_order_release);
}

namespace {
// The per-thread reduced-precision override (nn::ScopedPrecision). Checked
// before the global selection; never set on pool workers — the model's
// forward passes dispatch every GEMM from the calling thread.
thread_local GemmBackend* tls_backend_override = nullptr;
}  // namespace

GemmBackend* SetThreadGemmBackendOverride(GemmBackend* backend) noexcept {
  GemmBackend* prev = tls_backend_override;
  tls_backend_override = backend;
  return prev;
}

GemmBackend* ThreadGemmBackendOverride() noexcept {
  return tls_backend_override;
}

GemmBackend& CurrentGemmBackend() {
  if (tls_backend_override != nullptr) return *tls_backend_override;
  Registry& r = GetRegistry();
  GemmBackend* backend = r.current.load(std::memory_order_acquire);
  if (backend != nullptr) return *backend;
  std::lock_guard<std::mutex> lock(r.mu);
  r.ConsumeEnvLocked(/*select=*/true);
  backend = r.current.load(std::memory_order_acquire);
  if (backend == nullptr) {
    backend = &r.builtin;  // default
    r.current.store(backend, std::memory_order_release);
  }
  return *backend;
}

std::string CurrentGemmBackendName() {
  return std::string(CurrentGemmBackend().name());
}

void ResetGemmBackendSelectionForTest() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.current.store(nullptr, std::memory_order_release);
  r.env_consumed = false;
  r.parity.store(false, std::memory_order_relaxed);
}

void SetGemmParityCheck(bool enabled) {
  GetRegistry().parity.store(enabled, std::memory_order_relaxed);
}

bool GemmParityCheckEnabled() {
  return GetRegistry().parity.load(std::memory_order_relaxed);
}

// ---- Entry-point wrappers (declared in nn/matrix.h) -------------------------

namespace {

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

// Runs one entry point on the selected backend; in parity mode (and on a
// non-builtin backend) recomputes it with the built-in kernels from the
// same starting state and enforces the backend's own ParityBound.
// `inner_extent` is the contraction length of the entry point (a.cols()
// for MatMul/TransposeB, a.rows() for TransposeA) — the reduced-precision
// backends scale their error bound by it.
void Dispatch(void (GemmBackend::*entry)(Matrix&, const Matrix&,
                                         const Matrix&),
              const char* what, Matrix& out, const Matrix& a, const Matrix& b,
              long long inner_extent) {
  GemmBackend& backend = CurrentGemmBackend();
  GemmBackend& builtin = BuiltinGemmBackend();
  if (!GemmParityCheckEnabled() || &backend == &builtin) {
    (backend.*entry)(out, a, b);
    return;
  }
  Matrix reference = out;  // pre-call state (zeros, or prior accumulation)
  (backend.*entry)(out, a, b);
  (builtin.*entry)(reference, a, b);
  const GemmParityTolerance bound = backend.ParityBound(a, b, inner_extent);
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      const float got = out.at(i, j);
      const float want = reference.at(i, j);
      const float diff = std::abs(got - want);
      const float tol = std::max(bound.atol, bound.rtol * std::abs(want));
      if (diff <= tol) continue;  // NaN diff also falls through and throws
      throw GemmParityError(
          std::string("GEMM parity violation in ") + what + " on backend \"" +
          std::string(backend.name()) + "\" at (" + std::to_string(i) + "," +
          std::to_string(j) + "): got " + std::to_string(got) +
          ", builtin " + std::to_string(want) + " (" + a.ShapeString() +
          " x " + b.ShapeString() + ")");
    }
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  CheckMatMulShapes(a, b, "MatMul");
  Matrix out(a.rows(), b.cols());
  Dispatch(&GemmBackend::MatMul, "MatMul", out, a, b, a.cols());
  return out;
}

void MatMulInto(Matrix& out, const Matrix& a, const Matrix& b) {
  CheckMatMulShapes(a, b, "MatMulInto");
  // Reshape only: MatMul overwrites every element.
  out = Matrix(a.rows(), b.cols(), out.TakeStorage(), Matrix::Uninit{});
  Dispatch(&GemmBackend::MatMul, "MatMulInto", out, a, b, a.cols());
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeA");
  Matrix out(a.cols(), b.cols());
  Dispatch(&GemmBackend::MatMulTransposeA, "MatMulTransposeA", out, a, b,
           a.rows());
  return out;
}

void MatMulTransposeAAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeAShapes(a, b, "MatMulTransposeAAccum");
  CheckAccumShape(dst, a.cols(), b.cols(), "MatMulTransposeAAccum");
  Dispatch(&GemmBackend::MatMulTransposeAAccum, "MatMulTransposeAAccum", dst,
           a, b, a.rows());
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeB");
  Matrix out(a.rows(), b.rows());
  Dispatch(&GemmBackend::MatMulTransposeB, "MatMulTransposeB", out, a, b,
           a.cols());
  return out;
}

void MatMulTransposeBAccum(Matrix& dst, const Matrix& a, const Matrix& b) {
  CheckTransposeBShapes(a, b, "MatMulTransposeBAccum");
  CheckAccumShape(dst, a.rows(), b.rows(), "MatMulTransposeBAccum");
  Dispatch(&GemmBackend::MatMulTransposeBAccum, "MatMulTransposeBAccum", dst,
           a, b, a.cols());
}

}  // namespace tpuperf::nn
