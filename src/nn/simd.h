// Native-width float vectors for the register-tiled f32 kernels.
//
// The lane width follows the compile target: a vector type wider than the
// target's registers is emulated by the compiler and runs many times slower,
// so there is no runtime dispatch and no wider fallback. The column blocking
// of a product depends only on its width n (and the target), never on the
// row count, so batched and single-row products stay bit-identical.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

namespace tpuperf::nn::simd {

#if defined(__AVX512F__)
inline constexpr int kBytes = 64;
#elif defined(__AVX__)
inline constexpr int kBytes = 32;
#else
inline constexpr int kBytes = 16;
#endif

typedef float VecF __attribute__((vector_size(kBytes)));
inline constexpr int kLanes = kBytes / static_cast<int>(sizeof(float));

// Unaligned loads and stores; T is VecF or float.
template <typename T>
inline T Load(const float* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <typename T>
inline void Store(float* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

// One register tile: for rows r < kRows and the kVecs * lanes(T) columns
// from j, out[r][j..] = (or += with Accum) sum_p a[r][p * a_step] *
// b[p * ldb + j..], each element one chain over ascending p from zero.
// Rows r >= valid are computed but not stored (callers alias them to a
// real row). In a vector tile every step is one FMA where the target has
// FMA (the optimizer contracts `acc += av * bv`), whatever the tile shape.
// In a scalar tile (T = float) the compiler may vectorize the chain over p
// into separate multiplies and in-order adds: still deterministic and the
// same for every row, but not an FMA chain.
template <typename T, int kRows, int kVecs, bool Accum>
inline void MulAddTile(const float* const* a, std::size_t a_step,
                       const float* b, std::size_t ldb, int k, int j,
                       float* const* out, int valid) {
  constexpr int kW = sizeof(T) / sizeof(float);
  T acc[kRows][kVecs] = {};
  for (int p = 0; p < k; ++p) {
    const float* b_row = b + static_cast<std::size_t>(p) * ldb + j;
    T bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = Load<T>(b_row + v * kW);
    for (int r = 0; r < kRows; ++r) {
      const float av = a[r][static_cast<std::size_t>(p) * a_step];
      for (int v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < kRows && r < valid; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      float* o = out[r] + j + v * kW;
      Store(o, Accum ? Load<T>(o) + acc[r][v] : acc[r][v]);
    }
  }
}

// The full-vector columns from j through vector tiles of kVecs vectors,
// then halving widths down to one vector. Returns the first column left,
// n - n % kLanes: the blocking depends only on n.
template <int kRows, int kVecs, bool Accum>
inline int MulAddVectorCols(const float* const* a, std::size_t a_step,
                            const float* b, std::size_t ldb, int k, int n,
                            float* const* out, int valid, int j = 0) {
  for (; j + kVecs * kLanes <= n; j += kVecs * kLanes) {
    MulAddTile<VecF, kRows, kVecs, Accum>(a, a_step, b, ldb, k, j, out, valid);
  }
  if constexpr (kVecs > 1) {
    return MulAddVectorCols<kRows, kVecs / 2, Accum>(a, a_step, b, ldb, k, n,
                                                     out, valid, j);
  }
  return j;
}

// out[0, n) = (or += with Accum) x[0, k) @ b (row stride ldb) for one row:
// vector tiles of up to 8 accumulators, then the leftover columns as
// explicit FMA chains, so every element is an FMA chain from zero over
// ascending p (where the target has FMA).
template <bool Accum>
inline void MulAddRow(const float* x, const float* b, std::size_t ldb, int k,
                      int n, float* out) {
  int j = MulAddVectorCols<1, 8, Accum>(&x, 1, b, ldb, k, n, &out, 1);
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int p = 0; p < k; ++p) {
#ifdef __FMA__
      acc = std::fma(x[p], b[static_cast<std::size_t>(p) * ldb + j], acc);
#else
      acc += x[p] * b[static_cast<std::size_t>(p) * ldb + j];
#endif
    }
    out[j] = Accum ? out[j] + acc : acc;
  }
}

}  // namespace tpuperf::nn::simd
