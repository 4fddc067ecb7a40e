// Native-width float vectors for the register-tiled f32 kernels.
//
// The lane width follows the compile target: a vector type wider than the
// target's registers is emulated by the compiler and runs many times slower,
// so there is no runtime dispatch and no wider fallback. The kernels spell
// every multiply-add out (MulAdd), so a product element's value is its own
// FMA chain whatever tile computes it: tile shapes change speed, never
// values, and batched and single-row products stay bit-identical.
#pragma once

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "nn/matrix.h"

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

// The first n < kLanes floats of p in a zero-padded vector, and its inverse
// (masked moves under AVX-512; neither touches memory past p + n).
inline VecF LoadPartial(const float* p, int n) {
#if defined(__AVX512F__)
  return reinterpret_cast<VecF>(
      _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << n) - 1), p));
#else
  VecF v = {};
  std::memcpy(&v, p, sizeof(float) * static_cast<std::size_t>(n));
  return v;
#endif
}
inline void StorePartial(float* p, VecF v, int n) {
#if defined(__AVX512F__)
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << n) - 1),
                        reinterpret_cast<__m512>(v));
#else
  std::memcpy(p, &v, sizeof(float) * static_cast<std::size_t>(n));
#endif
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

// Rows of a GEMM register tile: 8 on AVX-512's 32 vector registers (16
// accumulators, two b vectors and a broadcast), 4 on 16-register targets.
#if defined(__AVX512F__)
inline constexpr int kTileRows = 8;
#else
inline constexpr int kTileRows = 4;
#endif

// n rounded up to whole vectors: the row stride of a packed panel.
inline constexpr int PaddedCols(int n) {
  return (n + kLanes - 1) / kLanes * kLanes;
}

inline VecF LoadAligned(const float* p) {
  VecF v;
  std::memcpy(&v, __builtin_assume_aligned(p, kBytes), sizeof v);
  return v;
}

// The right operand of a product as a [k, PaddedCols(n)] row-major panel
// that the tiles read with aligned whole-vector loads, returned with its
// row stride. That is b itself (row stride ldb) when b is 64-byte aligned
// and n and ldb are lane multiples; otherwise a copy, zero-padded to whole
// vectors, in a thread-local buffer that the thread's next call reuses.
// With `transposed`, b is [n, k] and the panel holds its transpose.
inline std::pair<const float*, std::size_t> PackedPanel(const float* b,
                                                        std::size_t ldb,
                                                        int k, int n,
                                                        bool transposed) {
  if (!transposed && n % kLanes == 0 && ldb % kLanes == 0 &&
      reinterpret_cast<std::uintptr_t>(b) % kBytes == 0) {
    return {b, ldb};
  }
  static thread_local Matrix::Storage panel;
  const std::size_t ld = static_cast<std::size_t>(PaddedCols(n));
  panel.resize(static_cast<std::size_t>(k) * ld);
  for (int p = 0; p < k; ++p) {
    float* row = panel.data() + static_cast<std::size_t>(p) * ld;
    for (int j = 0; j < n; ++j) {
      row[j] = transposed ? b[static_cast<std::size_t>(j) * ldb + p]
                          : b[static_cast<std::size_t>(p) * ldb + j];
    }
    std::fill(row + n, row + ld, 0.0f);
  }
  return {panel.data(), ld};
}

// One register tile: for rows r < kRows and the kVecs vectors of columns
// from j, out[r][j..] = (or += with Accum) sum_p a[r][p * a_step] *
// b[p * ldb + j..], each element one MulAdd chain over ascending p from
// zero, whatever the tile shape. The accumulators live in registers for
// the whole k extent. Only the columns below n are stored.
template <int kRows, int kVecs, bool Accum>
[[gnu::always_inline]] inline void MulAddTile(const float* const* a,
                                              std::size_t a_step,
                                              const float* b, std::size_t ldb,
                                              int k, int j, int n,
                                              float* const* out) {
  VecF acc[kRows][kVecs];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) acc[r][v] = VecF{};
  }
  for (int p = 0; p < k; ++p) {
    const float* b_row = b + static_cast<std::size_t>(p) * ldb + j;
    VecF bv[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) bv[v] = LoadAligned(b_row + v * kLanes);
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      const VecF av = Broadcast(a[r][static_cast<std::size_t>(p) * a_step]);
#pragma GCC unroll 8
      for (int v = 0; v < kVecs; ++v) acc[r][v] = MulAdd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v) {
      float* o = out[r] + j + v * kLanes;
      const int cols = n - j - v * kLanes;
      if (cols >= kLanes) {
        Store(o, Accum ? Load(o) + acc[r][v] : acc[r][v]);
      } else {
        StorePartial(o, Accum ? LoadPartial(o, cols) + acc[r][v] : acc[r][v],
                     cols);
      }
    }
  }
}

// The columns [j, PaddedCols(n)) of kRows rows in tiles of kVecs vectors,
// then halving widths down to one vector.
template <int kRows, int kVecs, bool Accum>
inline void MulAddCols(const float* const* a, std::size_t a_step,
                       const float* b, std::size_t ldb, int k, int n,
                       float* const* out, int j = 0) {
  for (; j + kVecs * kLanes <= PaddedCols(n); j += kVecs * kLanes) {
    MulAddTile<kRows, kVecs, Accum>(a, a_step, b, ldb, k, j, n, out);
  }
  if constexpr (kVecs > 1) {
    MulAddCols<kRows, kVecs / 2, Accum>(a, a_step, b, ldb, k, n, out, j);
  }
}

// out[r][0, n) = (or += with Accum) sum_p a[r][p * a_step] * b[p, 0, n)
// for rows r < rows, over a [k, PaddedCols(n)] panel b (PackedPanel).
// Rows run in blocks of kTileRows, then halving heights down to one row,
// each in column tiles as wide as the registers allow at that height (two
// vectors at kTileRows, up to eight for a single row), then halving. Every
// element is one MulAdd chain from zero over ascending p (an Accum product
// adds the finished chain onto out), whatever tile it falls in, so a row's
// value depends only on its own operand and b: never on its position or on
// the other rows.
template <bool Accum, int kRows = kTileRows>
inline void MulAddRows(const float* const* a, std::size_t a_step,
                       const float* b, std::size_t ldb, int k, int n,
                       float* const* out, int rows) {
  constexpr int kVecs = std::min(8, 2 * kTileRows / kRows);
  for (; rows >= kRows; rows -= kRows, a += kRows, out += kRows) {
    MulAddCols<kRows, kVecs, Accum>(a, a_step, b, ldb, k, n, out);
  }
  if constexpr (kRows > 1) {
    if (rows > 0) {
      MulAddRows<Accum, kRows / 2>(a, a_step, b, ldb, k, n, out, rows);
    }
  }
}

}  // namespace tpuperf::nn::simd
