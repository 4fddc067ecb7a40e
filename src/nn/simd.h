// Native-width float vectors for the register-tiled f32 kernels.
//
// The lane width follows the compile target: a vector type wider than the
// target's registers is emulated by the compiler and runs many times slower,
// so there is no runtime dispatch and no wider fallback. The column blocking
// of a product depends only on its width n (and the target), never on the
// row count, so batched and single-row products stay bit-identical.
#pragma once

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#if defined(__SSE__)
#include <immintrin.h>
#endif

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

// Unaligned loads and stores.
inline VecF Load(const float* p) {
  VecF v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void Store(float* p, VecF v) { std::memcpy(p, &v, sizeof v); }

// x in every lane (x - (+0) == x for every x, -0 included).
inline VecF Broadcast(float x) { return x - VecF{}; }

// v with every lane of magnitude below FLT_MIN (subnormals and -0) set to
// +0; normal lanes, infinities and NaNs pass through unchanged.
inline VecF FlushTiny(VecF v) {
  const VecF min = Broadcast(FLT_MIN);
  return (v > -min && v < min) ? VecF{} : v;
}

// The first n < kLanes floats of p in a zero-padded vector, and its inverse.
inline VecF LoadPartial(const float* p, int n) {
  VecF v = {};
  std::memcpy(&v, p, sizeof(float) * static_cast<std::size_t>(n));
  return v;
}
inline void StorePartial(float* p, VecF v, int n) {
  std::memcpy(p, &v, sizeof(float) * static_cast<std::size_t>(n));
}

// a * b + c, one rounding where the target has FMA. Explicit rather than
// left to the compiler's contraction, so scalar and vector code that call
// it agree bit for bit at every optimization level.
inline float MulAdd(float a, float b, float c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}
inline VecF MulAdd(VecF a, VecF b, VecF c) {
#if defined(__AVX512F__)
  return reinterpret_cast<VecF>(_mm512_fmadd_ps(a, b, c));
#elif defined(__FMA__)
  return reinterpret_cast<VecF>(_mm256_fmadd_ps(a, b, c));
#else
  return a * b + c;
#endif
}

// Lane-wise IEEE square root (correctly rounded, as std::sqrt), without
// the errno check that keeps the compiler from vectorizing std::sqrt.
inline VecF Sqrt(VecF v) {
#if defined(__AVX512F__)
  // The zero-masked form: _mm512_sqrt_ps passes an undefined source vector,
  // which GCC 12 reports under -Wmaybe-uninitialized.
  return reinterpret_cast<VecF>(_mm512_maskz_sqrt_ps(0xFFFF, v));
#elif defined(__AVX__)
  return reinterpret_cast<VecF>(_mm256_sqrt_ps(v));
#elif defined(__SSE__)
  return reinterpret_cast<VecF>(_mm_sqrt_ps(v));
#else
  for (int l = 0; l < kLanes; ++l) v[l] = std::sqrt(v[l]);
  return v;
#endif
}

// The sum of the lanes, halving: lane l adds lane l + w for w = kLanes/2,
// ..., 1. A fixed order that depends only on the target.
inline float ReduceAdd(VecF v) {
  float lanes[kLanes];
  Store(lanes, v);
  for (int w = kLanes / 2; w > 0; w /= 2) {
    for (int l = 0; l < w; ++l) lanes[l] += lanes[l + w];
  }
  return lanes[0];
}

// sum_j x[j] * y[j] in float lanes: lane l chains MulAdd over the columns
// j = l (mod kLanes) in ascending order (the leftover columns zero-padded),
// then ReduceAdd. The order depends only on n and the target.
inline float Dot(const float* x, const float* y, std::size_t n) {
  VecF acc = {};
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    acc = MulAdd(Load(x + j), Load(y + j), acc);
  }
  if (j < n) {
    const int rest = static_cast<int>(n - j);
    acc = MulAdd(LoadPartial(x + j, rest), LoadPartial(y + j, rest), acc);
  }
  return ReduceAdd(acc);
}

// One register tile: for rows r < kRows and the kVecs * kLanes columns
// from j, out[r][j..] = (or += with Accum) sum_p a[r][p * a_step] *
// b[p * ldb + j..], each element one MulAdd chain over ascending p from
// zero, whatever the tile shape. Rows r >= valid are computed but not
// stored (callers alias them to a real row). Only the first `cols` columns
// are stored: a masked store for the leftover-column panel.
template <int kRows, int kVecs, bool Accum>
inline void MulAddTile(const float* const* a, std::size_t a_step,
                       const float* b, std::size_t ldb, int k, int j,
                       float* const* out, int valid,
                       int cols = kVecs * kLanes) {
  VecF acc[kRows][kVecs] = {};
  for (int p = 0; p < k; ++p) {
    const float* b_row = b + static_cast<std::size_t>(p) * ldb + j;
    VecF bv[kVecs];
    for (int v = 0; v < kVecs; ++v) bv[v] = Load(b_row + v * kLanes);
    for (int r = 0; r < kRows; ++r) {
      const VecF av = Broadcast(a[r][static_cast<std::size_t>(p) * a_step]);
      for (int v = 0; v < kVecs; ++v) acc[r][v] = MulAdd(av, bv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < kRows && r < valid; ++r) {
    for (int v = 0; v < kVecs; ++v) {
      float* o = out[r] + j + v * kLanes;
      const int n = cols - v * kLanes;
      if (n >= kLanes) {
        Store(o, Accum ? Load(o) + acc[r][v] : acc[r][v]);
      } else {
        StorePartial(o, Accum ? LoadPartial(o, n) + acc[r][v] : acc[r][v], n);
      }
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
    MulAddTile<kRows, kVecs, Accum>(a, a_step, b, ldb, k, j, out, valid);
  }
  if constexpr (kVecs > 1) {
    return MulAddVectorCols<kRows, kVecs / 2, Accum>(a, a_step, b, ldb, k, n,
                                                     out, valid, j);
  }
  return j;
}

// The leftover columns [j, n) of b (row stride ldb, n - j < kLanes) as a
// zero-padded [k, kLanes] panel in thread-local scratch, so one vector
// tile (ldb = kLanes, storing n - j columns) covers them without reading
// past b.
inline const float* LeftoverPanel(const float* b, std::size_t ldb, int k,
                                  int j, int n) {
  static thread_local std::vector<float> panel;
  panel.assign(static_cast<std::size_t>(k) * kLanes, 0.0f);
  for (int p = 0; p < k; ++p) {
    std::memcpy(panel.data() + static_cast<std::size_t>(p) * kLanes,
                b + static_cast<std::size_t>(p) * ldb + j,
                sizeof(float) * static_cast<std::size_t>(n - j));
  }
  return panel.data();
}

// out[0, n) = (or += with Accum) x[0, k) @ b (row stride ldb) for one row:
// vector tiles of up to 8 accumulators, then the leftover columns as
// explicit MulAdd chains, so every element is an FMA chain from zero over
// ascending p (where the target has FMA).
template <bool Accum>
inline void MulAddRow(const float* x, const float* b, std::size_t ldb, int k,
                      int n, float* out) {
  int j = MulAddVectorCols<1, 8, Accum>(&x, 1, b, ldb, k, n, &out, 1);
  for (; j < n; ++j) {
    float acc = 0.0f;
    for (int p = 0; p < k; ++p) {
      acc = MulAdd(x[p], b[static_cast<std::size_t>(p) * ldb + j], acc);
    }
    out[j] = Accum ? out[j] + acc : acc;
  }
}

}  // namespace tpuperf::nn::simd
