/// \file
/// Pluggable GEMM backend dispatch (ROADMAP "Multi-backend GEMM").
///
/// Every hot path in the reproduction — batched GNN inference, the fused
/// attention backward, trainer minibatch steps — bottoms out in the five
/// GEMM entry points declared in nn/matrix.h. This header makes those entry
/// points dispatch through a process-global `GemmBackend`, so hosts with an
/// optimized BLAS (or Eigen) can route large dense contractions to the
/// tuned library while everything else keeps the built-in register-tiled
/// kernels — mirroring how production stacks hand contractions to vendor
/// libraries.
///
/// Backends:
///   * `"builtin"` — always registered. The hand-written kernels: native-width
///     register tiles for every product whatever its density (nn/simd.h),
///     deterministic `core::ThreadPool` row partitioning.
///   * `"blas"`   — compiled when CMake is configured with
///     `-DTPUPERF_WITH_BLAS=ON` and a CBLAS (e.g. OpenBLAS) is found.
///   * `"eigen"`  — compiled with `-DTPUPERF_WITH_EIGEN=ON` and Eigen3.
///
/// External backends are *routed* (see RoutedGemmBackend): only dense
/// products above a flops threshold go to the library; mostly-zero and tiny
/// operands stay on the built-in kernels.
///
/// Selection:
///   * `nn::SetGemmBackend("name")` — programmatic, takes effect for every
///     subsequent GEMM in the process.
///   * `TPUPERF_GEMM_BACKEND=name` — environment override, read once at the
///     first GEMM (or first CurrentGemmBackend* call). Unknown names throw
///     `std::invalid_argument` listing what is registered — loudly, not a
///     silent fallback.
///
/// Parity mode (`nn::SetGemmParityCheck(true)` or `TPUPERF_GEMM_PARITY=1`):
/// every dispatched GEMM on a non-builtin backend is recomputed with the
/// built-in kernels and compared element-wise against the *backend's own*
/// tolerance (GemmBackend::ParityBound):
///     |backend - builtin| <= max(atol, rtol * |builtin|)
/// Exact-arithmetic backends (blas, eigen) keep the default
/// {kGemmParityRtol, kGemmParityRtol} — identical to the historical
/// kGemmParityRtol * max(1, |builtin|) bound — while the reduced-precision
/// backends (nn/quant.h) widen only their own check to their derived
/// quantization-error bound; one shared constant can no longer silently
/// relax the strict backends. A violation throws `GemmParityError` naming
/// the entry point, shapes, and worst element. Parity mode is a debugging
/// tool — it roughly triples the cost of every checked GEMM.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "nn/matrix.h"

namespace tpuperf::nn {

/// Relative tolerance of the parity check: the documented bound on
/// FP-contraction disagreement between backends. External libraries sum the
/// k-extent in a different association (SIMD lane trees, FMA contraction)
/// than the built-in ascending-p loops; for the operand magnitudes and
/// k <= a few thousand seen here, the drift stays well under 1e-4 relative.
inline constexpr float kGemmParityRtol = 1e-4f;

/// Thrown by parity mode when a backend disagrees with the built-in kernels
/// beyond kGemmParityRtol.
class GemmParityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-backend parity tolerance: the check passes an element when
/// |backend - builtin| <= max(atol, rtol * |builtin|).
struct GemmParityTolerance {
  float rtol = kGemmParityRtol;
  float atol = kGemmParityRtol;
};

/// One GEMM implementation covering all five entry points of nn/matrix.h.
///
/// Contract (shapes are pre-validated by the nn::MatMul* wrappers; `out`
/// arrives already shaped, and the non-accumulating calls must overwrite
/// every element of it: MatMulInto hands over a recycled buffer with
/// unspecified contents):
///   * MatMul:          out  = a @ b           a:[m,k] b:[k,n] out:[m,n]
///   * MatMulTransposeA: out = a^T @ b         a:[k,m] b:[k,n] out:[m,n]
///   * MatMulTransposeB: out = a @ b^T         a:[m,k] b:[n,k] out:[m,n]
///   * MatMulTransposeAAccum: dst += a^T @ b   (dst holds prior grads)
///   * MatMulTransposeBAccum: dst += a @ b^T
///
/// Implementations must be safe to call concurrently from pool workers
/// (no mutable per-call state beyond locals / thread_locals) and must not
/// depend on `core::ThreadPool` width for their *values* — the built-in
/// kernels partition deterministically, external libraries run their own
/// (pool-independent) schedule.
class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  /// Stable registry name ("builtin", "blas", "eigen", ...).
  virtual std::string_view name() const noexcept = 0;

  virtual void MatMul(Matrix& out, const Matrix& a, const Matrix& b) = 0;
  virtual void MatMulTransposeA(Matrix& out, const Matrix& a,
                                const Matrix& b) = 0;
  virtual void MatMulTransposeB(Matrix& out, const Matrix& a,
                                const Matrix& b) = 0;
  virtual void MatMulTransposeAAccum(Matrix& dst, const Matrix& a,
                                     const Matrix& b) = 0;
  virtual void MatMulTransposeBAccum(Matrix& dst, const Matrix& a,
                                     const Matrix& b) = 0;

  /// The parity-mode tolerance this backend claims for one dispatched
  /// product with entry-point operands `a`/`b` and contraction extent
  /// `inner_extent`. The default — {kGemmParityRtol, kGemmParityRtol},
  /// i.e. exactly the historical kGemmParityRtol * max(1, |builtin|) —
  /// suits backends that compute in f32; reduced-precision backends
  /// override it with their derived quantization-error bound.
  virtual GemmParityTolerance ParityBound(const Matrix& a, const Matrix& b,
                                          long long inner_extent) const;
};

/// Base class for backends that wrap an external dense-GEMM library.
///
/// Implements the five entry points with the routing policy described in the
/// file comment: dense operands whose product exceeds
/// `kExternalDispatchFlops` multiply-adds go to the subclass's Dense*
/// hooks; mostly-zero left operands and small products run on the
/// built-in kernels instead, bit-identical to the "builtin" backend. Large
/// `MatMulTransposeB` products always go to the library.
class RoutedGemmBackend : public GemmBackend {
 public:
  /// Minimum m*k*n (multiply-adds) before a product is worth a library
  /// call; below this the built-in kernels finish faster than the
  /// dispatch + pack overhead of typical BLAS implementations.
  static constexpr long long kExternalDispatchFlops = 1 << 15;

  void MatMul(Matrix& out, const Matrix& a, const Matrix& b) final;
  void MatMulTransposeA(Matrix& out, const Matrix& a, const Matrix& b) final;
  void MatMulTransposeB(Matrix& out, const Matrix& a, const Matrix& b) final;
  void MatMulTransposeAAccum(Matrix& dst, const Matrix& a,
                             const Matrix& b) final;
  void MatMulTransposeBAccum(Matrix& dst, const Matrix& a,
                             const Matrix& b) final;

 protected:
  /// Library hooks. `accumulate=false`: overwrite `out` (beta=0; its
  /// contents are unspecified); `accumulate=true`: out += product. Shapes
  /// as in the GemmBackend contract.
  virtual void DenseMatMul(Matrix& out, const Matrix& a, const Matrix& b,
                           bool accumulate) = 0;
  virtual void DenseTransposeA(Matrix& out, const Matrix& a, const Matrix& b,
                               bool accumulate) = 0;
  virtual void DenseTransposeB(Matrix& out, const Matrix& a, const Matrix& b,
                               bool accumulate) = 0;
};

/// The always-available built-in backend (register-tiled kernels).
GemmBackend& BuiltinGemmBackend();

// ---- Registry ---------------------------------------------------------------

/// Registers `backend` under backend->name(). Throws std::invalid_argument
/// on a duplicate name (names are stable identities, not slots). The
/// registry owns the backend for the remainder of the process.
void RegisterGemmBackend(std::unique_ptr<GemmBackend> backend);

/// Removes a registered backend by name (a test hook — production code
/// registers for process lifetime). Throws std::invalid_argument for
/// "builtin" or an unknown name; if the removed backend was selected,
/// selection falls back to "builtin". The backend is destroyed: callers
/// must ensure no GEMM is in flight on it (the registry cannot).
void UnregisterGemmBackend(std::string_view name);

/// Names of all registered backends, "builtin" first, registration order
/// after that.
std::vector<std::string> GemmBackendNames();

bool HasGemmBackend(std::string_view name);

/// The registered backend named `name`. Throws std::invalid_argument
/// (listing the registered names) when unknown. The reference stays valid
/// until the backend is unregistered.
GemmBackend& GemmBackendByName(std::string_view name);

// ---- Selection --------------------------------------------------------------

/// Selects the backend every subsequent nn::MatMul* call dispatches to.
/// Throws std::invalid_argument (listing the registered names) when `name`
/// is unknown.
void SetGemmBackend(std::string_view name);

/// The currently selected backend. On the first call (unless
/// SetGemmBackend ran earlier) this reads TPUPERF_GEMM_BACKEND; an unknown
/// value there throws std::invalid_argument just like SetGemmBackend.
GemmBackend& CurrentGemmBackend();
std::string CurrentGemmBackendName();

/// Re-arms the lazy TPUPERF_GEMM_BACKEND read and clears any programmatic
/// selection (test hook for env-selection coverage).
void ResetGemmBackendSelectionForTest();

/// Installs a *thread-local* backend override consulted by
/// CurrentGemmBackend() before the process-global selection; nullptr
/// removes it. Returns the previous override so scopes nest. This is how
/// reduced-precision inference routes one model's GEMMs through the
/// "quant-int8"/"fp16" backends (nn::ScopedPrecision) without perturbing
/// concurrent f32 work on other threads.
GemmBackend* SetThreadGemmBackendOverride(GemmBackend* backend) noexcept;
/// The current thread's override, or nullptr.
GemmBackend* ThreadGemmBackendOverride() noexcept;

// ---- Parity mode ------------------------------------------------------------

/// When enabled, every GEMM dispatched to a non-builtin backend is
/// recomputed with the built-in kernels and compared within
/// kGemmParityRtol; disagreement throws GemmParityError. Also armed by
/// TPUPERF_GEMM_PARITY=1 (read at the same lazy init as the backend env).
void SetGemmParityCheck(bool enabled);
bool GemmParityCheckEnabled();

}  // namespace tpuperf::nn
