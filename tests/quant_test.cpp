// Tests for the reduced-precision inference path (src/nn/quant.h): int8
// round-trip and per-feature scale derivation, six-entry-point GEMM parity
// against the builtin kernels within the derived error bounds (with
// bit-exact sparse/tiny fallbacks), a randomized property sweep over
// adversarial matrices, pool-width bit-invariance, the model precision
// lifecycle (SetPrecision round-trip, calibration, training/Save guards),
// compiled-plan replay parity under quantization, serving at a reduced
// precision, strict TPUPERF_PRECISION env parsing, and the end-to-end
// ranking regression tau(quant) >= tau(f32) - kQuantTauDegradationBound.
#include "nn/quant.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/thread_pool.h"
#include "dataset/datasets.h"
#include "dataset/families.h"
#include "eval/metrics.h"
#include "features/scaler.h"
#include "ir/builder.h"
#include "nn/gemm_backend.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "plan/plan.h"
#include "serve/prediction_service.h"
#include "sim/simulator.h"

namespace tpuperf::nn {
namespace {

// Deterministic pseudo-random matrix (same xorshift generator as
// gemm_backend_test): values in [-4, 4] at 1/250 granularity; when
// `zero_out_of_10` > 0, roughly that fraction of entries (out of 10) is 0.
Matrix PseudoRandom(int rows, int cols, std::uint64_t seed,
                    int zero_out_of_10 = 0) {
  Matrix m(rows, cols);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      if (zero_out_of_10 > 0 &&
          static_cast<int>(state % 10) < zero_out_of_10) {
        m.at(i, j) = 0.0f;
        continue;
      }
      const int v = static_cast<int>(state % 2001) - 1000;
      m.at(i, j) = static_cast<float>(v) / 250.0f;
    }
  }
  return m;
}

// The gemm_backend_test shape grid: empty extents, 1x1, non-multiples of
// the builtin tile, and shapes spanning the routed-dispatch threshold.
struct GemmShape {
  int m, k, n;
  int sparsity;  // a-operand zeros out of 10
};
const GemmShape kShapes[] = {
    {0, 4, 3, 0},   {4, 0, 3, 0},    {4, 3, 0, 0},     {1, 1, 1, 0},
    {1, 16, 16, 0}, {5, 7, 3, 0},    {33, 17, 29, 0},  {64, 48, 32, 0},
    {96, 64, 80, 8}, {200, 128, 160, 0},
};

void ExpectWithin(const Matrix& got, const Matrix& want,
                  const GemmParityTolerance& tol, const char* what) {
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
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got.at(i, j), want.at(i, j))
          << what << " at (" << i << "," << j << ")";
    }
  }
}

struct PoolWidthGuard {
  explicit PoolWidthGuard(int n) { core::ThreadPool::SetNumThreads(n); }
  ~PoolWidthGuard() {
    core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  }
};

// ---- int8 primitives --------------------------------------------------------

TEST(QuantPrimitives, RoundTripErrorIsWithinHalfScalePerRow) {
  const Matrix m = PseudoRandom(17, 29, 7);
  const QuantizedMatrix q = QuantizeRowsInt8(m);
  const Matrix back = DequantizeRowsInt8(q);
  ASSERT_EQ(q.rows, 17);
  ASSERT_EQ(q.cols, 29);
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      // Half-scale bound with slack for the f32 division: a value an ulp
      // from the tie can round across it, costing up to ~|v| * 2^-24 extra.
      EXPECT_LE(std::abs(back.at(i, j) - m.at(i, j)),
                q.scales[static_cast<size_t>(i)] * 0.50001f + FLT_MIN)
          << "(" << i << "," << j << ")";
      EXPECT_LE(std::abs(static_cast<int>(q.at(i, j))), 127);
    }
  }
}

TEST(QuantPrimitives, ScaleForAmaxFloorsAndZeroes) {
  EXPECT_EQ(QuantScaleForAmax(0.0f), 0.0f);
  EXPECT_EQ(QuantScaleForAmax(-1.0f), 0.0f);
  EXPECT_GE(QuantScaleForAmax(1e-40f), FLT_MIN);  // denormal-range floor
  EXPECT_FLOAT_EQ(QuantScaleForAmax(127.0f), 1.0f);
  // |v| / s never exceeds 127 for v <= amax.
  const float s = QuantScaleForAmax(3.7f);
  EXPECT_LE(3.7f / s, 127.0f + 1e-3f);
}

TEST(QuantPrimitives, AllZeroRowsQuantizeToExactZero) {
  Matrix m = PseudoRandom(6, 12, 9);
  for (int j = 0; j < m.cols(); ++j) m.at(3, j) = 0.0f;
  const QuantizedMatrix q = QuantizeRowsInt8(m);
  EXPECT_EQ(q.scales[3], 0.0f);
  const Matrix back = DequantizeRowsInt8(q);
  for (int j = 0; j < m.cols(); ++j) EXPECT_EQ(back.at(3, j), 0.0f);
}

TEST(QuantPrimitives, PerFeatureScalesComeFromScalerStats) {
  // Features 0/2 vary (scale 1/127 on the scaler's [0, 1] output range);
  // feature 1 is degenerate (max == min) and must get scale 0.
  const feat::FeatureScaler scaler = feat::FeatureScaler::FromStats(
      {-2.0, 5.0, 0.25}, {3.0, 5.0, 0.75}, /*observed=*/10);
  const std::vector<float> scales =
      PerFeatureInt8Scales(scaler.mins(), scaler.maxs());
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_FLOAT_EQ(scales[0], QuantScaleForAmax(1.0f));
  EXPECT_EQ(scales[1], 0.0f);
  EXPECT_FLOAT_EQ(scales[2], QuantScaleForAmax(1.0f));

  // FakeQuantRow under those scales: degenerate features are zeroed,
  // in-range values move by at most half a step, out-of-range saturates.
  std::vector<float> row = {0.5f, 123.0f, 9.0f};
  FakeQuantRow(row, scales);
  EXPECT_LE(std::abs(row[0] - 0.5f), scales[0] / 2.0f);
  EXPECT_EQ(row[1], 0.0f);
  EXPECT_FLOAT_EQ(row[2], 127.0f * scales[2]);  // grid edge
}

TEST(QuantPrimitives, FakeQuantRowRejectsWidthMismatch) {
  std::vector<float> row = {1.0f, 2.0f};
  const std::vector<float> scales = {0.1f};
  EXPECT_THROW(FakeQuantRow(row, scales), std::invalid_argument);
}

// ---- fp16 emulation ---------------------------------------------------------

TEST(QuantPrimitives, Fp16RoundMatchesBinary16Semantics) {
  // Exactly representable values survive.
  for (float v : {0.0f, 1.0f, -2.0f, 0.5f, 1024.0f, 65504.0f}) {
    EXPECT_EQ(Fp16Round(v), v) << v;
  }
  // Relative error of a normal value is at most 2^-11.
  for (float v : {0.1f, 3.14159f, -123.456f, 60000.0f, 1e-4f}) {
    EXPECT_LE(std::abs(Fp16Round(v) - v), std::abs(v) * 0x1p-11f) << v;
  }
  // 1 + 2^-11 is exactly between 1 and the next half; RNE picks 1 (even).
  EXPECT_EQ(Fp16Round(1.0f + 0x1p-11f), 1.0f);
  // Overflow rounds to infinity, preserving sign.
  EXPECT_EQ(Fp16Round(65520.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(Fp16Round(-1e30f), -std::numeric_limits<float>::infinity());
  // Subnormal halves are exact multiples of 2^-24; below half of the
  // smallest subnormal rounds to zero.
  EXPECT_EQ(Fp16Round(0x1p-24f), 0x1p-24f);
  EXPECT_EQ(Fp16Round(0x1p-26f), 0.0f);
  // NaN stays NaN.
  EXPECT_TRUE(std::isnan(Fp16Round(std::nanf(""))));
}

// ---- GEMM parity ------------------------------------------------------------

// Every entry point of both reduced-precision backends stays within its own
// ParityBound of the builtin result on the gemm_backend_test shape grid,
// dispatched through the thread-local ScopedPrecision override the model
// uses (not the process-global selection).
TEST(QuantGemmParity, AllEntryPointsWithinDerivedBoundViaScopedPrecision) {
  for (const Precision p : {Precision::kInt8, Precision::kFp16}) {
    GemmBackend* backend = ReducedPrecisionBackend(p);
    ASSERT_NE(backend, nullptr);
    const ScopedPrecision scoped(p);
    for (const GemmShape& s : kShapes) {
      SCOPED_TRACE(std::string(PrecisionName(p)) + " shape=" +
                   std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                   std::to_string(s.n));
      GemmBackend& builtin = BuiltinGemmBackend();
      const Matrix a = PseudoRandom(s.m, s.k, 1, s.sparsity);
      const Matrix b = PseudoRandom(s.k, s.n, 2);
      const Matrix ta_a = PseudoRandom(s.k, s.m, 3, s.sparsity);  // [k,m]
      const Matrix tb_b = PseudoRandom(s.n, s.k, 4);              // [n,k]
      {
        const GemmParityTolerance tol = backend->ParityBound(a, b, s.k);
        Matrix want(s.m, s.n);
        builtin.MatMul(want, a, b);
        ExpectWithin(MatMul(a, b), want, tol, "MatMul");
        Matrix into = PseudoRandom(2, 2, 99);
        MatMulInto(into, a, b);
        ExpectWithin(into, want, tol, "MatMulInto");
      }
      {
        const GemmParityTolerance tol = backend->ParityBound(ta_a, b, s.k);
        Matrix want(s.m, s.n);
        builtin.MatMulTransposeA(want, ta_a, b);
        ExpectWithin(MatMulTransposeA(ta_a, b), want, tol,
                     "MatMulTransposeA");
        Matrix want_acc = PseudoRandom(s.m, s.n, 5);
        Matrix got_acc = want_acc;
        builtin.MatMulTransposeAAccum(want_acc, ta_a, b);
        MatMulTransposeAAccum(got_acc, ta_a, b);
        ExpectWithin(got_acc, want_acc, tol, "MatMulTransposeAAccum");
      }
      {
        const GemmParityTolerance tol = backend->ParityBound(a, tb_b, s.k);
        Matrix want(s.m, s.n);
        builtin.MatMulTransposeB(want, a, tb_b);
        ExpectWithin(MatMulTransposeB(a, tb_b), want, tol,
                     "MatMulTransposeB");
        Matrix want_acc = PseudoRandom(s.m, s.n, 6);
        Matrix got_acc = want_acc;
        builtin.MatMulTransposeBAccum(want_acc, a, tb_b);
        MatMulTransposeBAccum(got_acc, a, tb_b);
        ExpectWithin(got_acc, want_acc, tol, "MatMulTransposeBAccum");
      }
    }
  }
}

TEST(QuantGemmParity, SparseAndTinyOperandsFallBackBitExact) {
  const ScopedPrecision scoped(Precision::kInt8);
  {
    // >= 70% zeros and >= 256 elements: builtin zero-skip path, bit-exact.
    const Matrix a = PseudoRandom(96, 64, 7, /*zero_out_of_10=*/8);
    const Matrix b = PseudoRandom(64, 80, 8);
    Matrix want(96, 80);
    BuiltinGemmBackend().MatMul(want, a, b);
    ExpectBitEqual(MatMul(a, b), want, "sparse fallback");
  }
  {
    // 5*7*3 multiply-adds is far below kExternalDispatchFlops.
    const Matrix a = PseudoRandom(5, 7, 9);
    const Matrix b = PseudoRandom(7, 3, 10);
    Matrix want(5, 3);
    BuiltinGemmBackend().MatMul(want, a, b);
    ExpectBitEqual(MatMul(a, b), want, "tiny fallback");
  }
}

TEST(QuantGemmParity, ScopedPrecisionNestsAndRestores) {
  EXPECT_EQ(ThreadGemmBackendOverride(), nullptr);
  {
    const ScopedPrecision outer(Precision::kInt8);
    EXPECT_EQ(ThreadGemmBackendOverride(),
              ReducedPrecisionBackend(Precision::kInt8));
    {
      // kFloat32 is a no-op: the outer reduced-precision scope stays armed.
      const ScopedPrecision noop(Precision::kFloat32);
      EXPECT_EQ(ThreadGemmBackendOverride(),
                ReducedPrecisionBackend(Precision::kInt8));
      const ScopedPrecision inner(Precision::kFp16);
      EXPECT_EQ(ThreadGemmBackendOverride(),
                ReducedPrecisionBackend(Precision::kFp16));
    }
    EXPECT_EQ(ThreadGemmBackendOverride(),
              ReducedPrecisionBackend(Precision::kInt8));
  }
  EXPECT_EQ(ThreadGemmBackendOverride(), nullptr);
}

TEST(QuantGemmParity, SelectableThroughTheProcessGlobalRegistry) {
  // "quant-int8" is a first-class registry citizen: selectable like
  // blas/eigen, listed, and restorable.
  const std::string previous = CurrentGemmBackendName();
  SetGemmBackend("quant-int8");
  EXPECT_EQ(CurrentGemmBackendName(), "quant-int8");
  const Matrix a = PseudoRandom(64, 48, 1);
  const Matrix b = PseudoRandom(48, 64, 2);
  Matrix want(64, 64);
  BuiltinGemmBackend().MatMul(want, a, b);
  const GemmParityTolerance tol =
      GemmBackendByName("quant-int8").ParityBound(a, b, 48);
  ExpectWithin(MatMul(a, b), want, tol, "registry-selected quant MatMul");
  SetGemmBackend(previous);
}

// Randomized property sweep: seeded random shapes and adversarial value
// distributions (denormal-adjacent magnitudes, large dynamic range,
// all-zero rows) must stay within the *theoretical* error bound — computed
// in double against a double-accumulated reference, with a small f32 slack
// for the builtin reference itself.
TEST(QuantGemmParity, FuzzSweepStaysWithinTheoreticalBound) {
  std::mt19937_64 rng(20260809);
  const ScopedPrecision scoped(Precision::kInt8);
  for (int iter = 0; iter < 24; ++iter) {
    std::uniform_int_distribution<int> dim(8, 72);
    const int m = dim(rng), k = dim(rng), n = dim(rng);
    const int mode = iter % 3;
    Matrix a = PseudoRandom(m, k, 100 + static_cast<std::uint64_t>(iter));
    Matrix b = PseudoRandom(k, n, 200 + static_cast<std::uint64_t>(iter));
    if (mode == 1) {
      // Large dynamic range: rows of `a` span ~12 orders of magnitude.
      for (int i = 0; i < m; ++i) {
        const float scale = std::pow(10.0f, static_cast<float>(i % 13) - 6);
        for (int j = 0; j < k; ++j) a.at(i, j) *= scale;
      }
    } else if (mode == 2) {
      // Denormal-adjacent magnitudes plus all-zero rows.
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < k; ++j) {
          a.at(i, j) = (i % 4 == 0) ? 0.0f : a.at(i, j) * 1e-38f;
        }
      }
    }
    const Matrix got = MatMul(a, b);
    const double bound =
        1.0625 * QuantGemmErrorBound(k, MaxAbs(a), MaxAbs(b));
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        double want = 0;
        for (int kk = 0; kk < k; ++kk) {
          want += static_cast<double>(a.at(i, kk)) *
                  static_cast<double>(b.at(kk, j));
        }
        ASSERT_LE(std::abs(got.at(i, j) - want),
                  bound + 1e-4 * (1.0 + std::abs(want)))
            << "iter " << iter << " mode " << mode << " (" << i << "," << j
            << ") shape " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(QuantGemmParity, BitInvariantAcrossPoolWidths) {
  // int8 accumulates in exact int32, fp16 delegates to the deterministic
  // builtin kernels: pool width must not change a single bit.
  const Matrix a = PseudoRandom(200, 128, 13);
  const Matrix b = PseudoRandom(128, 160, 15);
  for (const Precision p : {Precision::kInt8, Precision::kFp16}) {
    SCOPED_TRACE(PrecisionName(p));
    const ScopedPrecision scoped(p);
    core::ThreadPool::SetNumThreads(1);
    const Matrix r1 = MatMul(a, b);
    core::ThreadPool::SetNumThreads(4);
    const Matrix r4 = MatMul(a, b);
    core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
    ExpectBitEqual(r4, r1, "MatMul across widths");
  }
}

// ---- Model precision lifecycle ---------------------------------------------

// The same random elementwise kernel generator plan_test/serve_test use.
ir::Graph RandomKernel(std::uint64_t seed, int target_nodes) {
  std::mt19937_64 rng(seed);
  ir::GraphBuilder b;
  std::vector<ir::NodeId> pool;
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  pool.push_back(b.Parameter(ir::Shape({16, 32})));
  std::uniform_int_distribution<int> op_pick(0, 3);
  while (static_cast<int>(pool.size()) < target_nodes) {
    std::uniform_int_distribution<size_t> node_pick(0, pool.size() - 1);
    const ir::NodeId x = pool[node_pick(rng)];
    switch (op_pick(rng)) {
      case 0:
        pool.push_back(b.Tanh(x));
        break;
      case 1:
        pool.push_back(b.Relu(x));
        break;
      case 2:
        pool.push_back(b.Unary(ir::OpCode::kExp, x));
        break;
      default:
        pool.push_back(b.Binary(ir::OpCode::kAdd, x, pool[node_pick(rng)]));
        break;
    }
  }
  b.MarkOutput(pool.back());
  return std::move(b).Build();
}

core::ModelConfig SmallConfig() {
  core::ModelConfig c = core::ModelConfig::TileTaskDefault();
  c.hidden_dim = 16;
  c.opcode_embedding_dim = 8;
  c.gnn_layers = 2;
  return c;
}

struct ModelFixture {
  std::vector<ir::Graph> kernels;
  std::vector<ir::TileConfig> tiles;
  std::unique_ptr<core::LearnedCostModel> model;
  std::vector<core::PreparedKernel> prepared;

  explicit ModelFixture(int num_kernels = 6) {
    for (int k = 0; k < num_kernels; ++k) {
      kernels.push_back(RandomKernel(
          1000 + static_cast<std::uint64_t>(k) * 17, 5 + 7 * k));
      tiles.push_back(ir::TileConfig{
          {static_cast<std::int64_t>(1 << (k % 5)), 8}});
    }
    model = std::make_unique<core::LearnedCostModel>(SmallConfig());
    for (const auto& kernel : kernels) model->FitNodeScaler(kernel);
    for (const auto& tile : tiles) model->FitTileScaler(tile);
    model->FinishFitting();
    for (const auto& kernel : kernels) {
      prepared.push_back(model->Prepare(kernel));
    }
  }

  core::PreparedBatch MakeBatch() const {
    std::vector<core::BatchItem> items;
    for (size_t i = 0; i < prepared.size(); ++i) {
      items.push_back({&prepared[i], &tiles[i]});
    }
    return model->PrepareBatch(items);
  }
};

TEST(QuantModel, SetPrecisionRoundTripIsBitExact) {
  ModelFixture fx;
  const double f32_before =
      fx.model->PredictScore(fx.prepared[2], &fx.tiles[2]);

  fx.model->SetPrecision(Precision::kInt8);
  EXPECT_EQ(fx.model->precision(), Precision::kInt8);
  const core::PreparedKernel q = fx.model->Prepare(fx.kernels[2]);
  const double int8_score = fx.model->PredictScore(q, &fx.tiles[2]);
  EXPECT_TRUE(std::isfinite(int8_score));

  // Back to f32: the pristine embedding table is restored, so the f32
  // prediction is exactly what it was before the round trip.
  fx.model->SetPrecision(Precision::kFloat32);
  EXPECT_EQ(fx.model->PredictScore(fx.prepared[2], &fx.tiles[2]),
            f32_before);

  // int8 -> fp16 -> int8 without passing through f32 also restores from
  // the pristine snapshot each time (no double quantization).
  fx.model->SetPrecision(Precision::kInt8);
  const core::PreparedKernel q1 = fx.model->Prepare(fx.kernels[2]);
  const double int8_a = fx.model->PredictScore(q1, &fx.tiles[2]);
  fx.model->SetPrecision(Precision::kFp16);
  fx.model->SetPrecision(Precision::kInt8);
  const core::PreparedKernel q2 = fx.model->Prepare(fx.kernels[2]);
  EXPECT_EQ(fx.model->PredictScore(q2, &fx.tiles[2]), int8_a);
  fx.model->SetPrecision(Precision::kFloat32);
}

TEST(QuantModel, PredictionsStayCloseToF32) {
  ModelFixture fx;
  std::vector<double> f32_scores;
  for (size_t i = 0; i < fx.prepared.size(); ++i) {
    f32_scores.push_back(
        fx.model->PredictScore(fx.prepared[i], &fx.tiles[i]));
  }
  for (const Precision p : {Precision::kInt8, Precision::kFp16}) {
    SCOPED_TRACE(PrecisionName(p));
    fx.model->SetPrecision(p);
    for (size_t i = 0; i < fx.kernels.size(); ++i) {
      const core::PreparedKernel q = fx.model->Prepare(fx.kernels[i]);
      const double score = fx.model->PredictScore(q, &fx.tiles[i]);
      EXPECT_TRUE(std::isfinite(score));
      EXPECT_LE(std::abs(score - f32_scores[i]),
                0.25 * (1.0 + std::abs(f32_scores[i])))
          << "kernel " << i;
    }
  }
  fx.model->SetPrecision(Precision::kFloat32);
}

TEST(QuantModel, TrainingThrowsAtReducedPrecision) {
  ModelFixture fx(3);
  fx.model->SetPrecision(Precision::kInt8);
  nn::Tape tape(/*grad_enabled=*/true);
  const core::PreparedBatch batch = fx.MakeBatch();
  EXPECT_THROW(fx.model->ForwardBatch(tape, batch, /*training=*/true),
               std::logic_error);
  // Inference-mode forwards still work.
  EXPECT_NO_THROW(fx.model->ForwardBatch(tape, batch, /*training=*/false));
}

TEST(QuantModel, SaveRefusesReducedPrecisionAndLoadResets) {
  ModelFixture fx(3);
  std::ostringstream pristine;
  fx.model->Save(pristine);

  fx.model->SetPrecision(Precision::kInt8);
  std::ostringstream sink;
  EXPECT_THROW(fx.model->Save(sink), std::logic_error);

  // Load always lands at f32, uncalibrated.
  std::istringstream source(pristine.str());
  fx.model->Load(source);
  EXPECT_EQ(fx.model->precision(), Precision::kFloat32);
}

TEST(QuantModel, CalibrationRequiresF32AndNonEmptySample) {
  ModelFixture fx(4);
  std::vector<const core::PreparedKernel*> sample;
  for (const auto& pk : fx.prepared) sample.push_back(&pk);

  EXPECT_THROW(
      fx.model->CalibrateQuantization(
          std::span<const core::PreparedKernel* const>{}),
      std::invalid_argument);
  fx.model->SetPrecision(Precision::kInt8);
  EXPECT_THROW(fx.model->CalibrateQuantization(sample), std::logic_error);
  fx.model->SetPrecision(Precision::kFloat32);
  EXPECT_NO_THROW(fx.model->CalibrateQuantization(sample));

  // Calibrated int8 still predicts finite, close-to-f32 scores.
  const double f32 = fx.model->PredictScore(fx.prepared[1], &fx.tiles[1]);
  fx.model->SetPrecision(Precision::kInt8);
  const core::PreparedKernel q = fx.model->Prepare(fx.kernels[1]);
  const double int8 = fx.model->PredictScore(q, &fx.tiles[1]);
  EXPECT_TRUE(std::isfinite(int8));
  EXPECT_LE(std::abs(int8 - f32), 0.25 * (1.0 + std::abs(f32)));
  fx.model->SetPrecision(Precision::kFloat32);
}

TEST(QuantModel, PredictBatchBitInvariantAcrossPoolWidths) {
  ModelFixture fx;
  fx.model->SetPrecision(Precision::kInt8);
  // Re-prepare at int8 (Prepare fake-quantizes features).
  fx.prepared.clear();
  for (const auto& kernel : fx.kernels) {
    fx.prepared.push_back(fx.model->Prepare(kernel));
  }
  const core::PreparedBatch batch = fx.MakeBatch();
  core::ThreadPool::SetNumThreads(1);
  const std::vector<double> w1 = fx.model->PredictBatch(batch);
  core::ThreadPool::SetNumThreads(4);
  const std::vector<double> w4 = fx.model->PredictBatch(batch);
  core::ThreadPool::SetNumThreads(core::ThreadPool::DefaultNumThreads());
  ASSERT_EQ(w1.size(), w4.size());
  for (size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i], w4[i]) << "element " << i;
  }
  fx.model->SetPrecision(Precision::kFloat32);
}

// ---- Compiled-plan replay under quantization --------------------------------

TEST(QuantPlan, ReplayMatchesTapeAtReducedPrecision) {
  for (const int width : {1, 4}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    PoolWidthGuard pool(width);
    ModelFixture fx;
    fx.model->SetPrecision(Precision::kInt8);
    fx.prepared.clear();
    for (const auto& kernel : fx.kernels) {
      fx.prepared.push_back(fx.model->Prepare(kernel));
    }
    const core::PreparedBatch batch = fx.MakeBatch();
    // Exact-capacity plan: padded rows == actual rows, so every replay GEMM
    // has the tape's operand shapes, the routing verdicts match, and the
    // quantized replay is bit-identical to the quantized tape path.
    const auto plan = fx.model->CompilePlan(batch.num_kernels(),
                                            batch.total_nodes());
    const std::vector<double> tape = fx.model->PredictBatch(batch);
    const std::vector<double> replay =
        fx.model->PredictBatchWithPlan(*plan, batch);
    ASSERT_EQ(tape.size(), replay.size());
    for (size_t i = 0; i < tape.size(); ++i) {
      EXPECT_EQ(replay[i], tape[i]) << "element " << i;
    }
    // Single-kernel replay at exact single capacity, same property.
    const auto single =
        fx.model->CompilePlan(1, fx.prepared[0].num_nodes);
    EXPECT_EQ(fx.model->PredictWithPlan(*single, fx.prepared[0],
                                        &fx.tiles[0]),
              fx.model->PredictScore(fx.prepared[0], &fx.tiles[0]));
  }
}

// ---- Serving at a reduced precision -----------------------------------------

TEST(QuantServe, ServiceAppliesConfiguredPrecisionWithinTolerance) {
  // A reference model quantized the same way the service quantizes its own.
  for (const int width : {1, 4}) {
    SCOPED_TRACE("pool width=" + std::to_string(width));
    PoolWidthGuard pool(width);
    ModelFixture fx(4);
    auto make_model = [&] {
      auto m = std::make_unique<core::LearnedCostModel>(SmallConfig());
      for (const auto& kernel : fx.kernels) m->FitNodeScaler(kernel);
      for (const auto& tile : fx.tiles) m->FitTileScaler(tile);
      m->FinishFitting();
      return m;
    };
    auto reference = make_model();
    reference->SetPrecision(Precision::kInt8);

    serve::ServiceConfig config;
    config.max_batch = 4;
    config.deadline_us = 500;
    config.num_threads = 2;
    config.precision = Precision::kInt8;
    serve::PredictionService service(make_model(), config);

    std::vector<std::future<serve::PredictResult>> futures;
    for (int round = 0; round < 3; ++round) {
      for (size_t i = 0; i < fx.kernels.size(); ++i) {
        futures.push_back(
            service.PredictAsync(fx.kernels[i], &fx.tiles[i]));
      }
    }
    for (size_t r = 0; r < futures.size(); ++r) {
      const size_t i = r % fx.kernels.size();
      const core::PreparedKernel prepared =
          reference->Prepare(fx.kernels[i]);
      const double direct = reference->PredictScore(prepared, &fx.tiles[i]);
      const serve::PredictResult served = futures[r].get();
      EXPECT_TRUE(std::isfinite(served.value));
      // Batched and single quantized passes can route differently, so the
      // contract is within-tolerance, not bitwise (see ServiceConfig).
      EXPECT_LE(std::abs(served.value - direct),
                0.25 * (1.0 + std::abs(direct)))
          << "request " << r;
    }
    const serve::ServiceStats stats = service.stats();
    EXPECT_GT(stats.reduced_precision_batches, 0u);
    EXPECT_LE(stats.reduced_precision_batches, stats.batches);
  }
}

TEST(QuantServe, F32ServiceReportsNoReducedPrecisionBatches) {
  ModelFixture fx(3);
  auto model = std::make_unique<core::LearnedCostModel>(SmallConfig());
  for (const auto& kernel : fx.kernels) model->FitNodeScaler(kernel);
  for (const auto& tile : fx.tiles) model->FitTileScaler(tile);
  model->FinishFitting();
  serve::PredictionService service(std::move(model));
  (void)service.Predict(fx.kernels[0], &fx.tiles[0]);
  EXPECT_EQ(service.stats().reduced_precision_batches, 0u);
}

// ---- TPUPERF_PRECISION env parsing ------------------------------------------

struct EnvGuard {
  ~EnvGuard() { unsetenv("TPUPERF_PRECISION"); }
};

TEST(QuantEnv, PrecisionFromEnvParsesStrictTokens) {
  EnvGuard guard;
  unsetenv("TPUPERF_PRECISION");
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFloat32);
  setenv("TPUPERF_PRECISION", "f32", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFloat32);
  setenv("TPUPERF_PRECISION", "int8", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kInt8);
  setenv("TPUPERF_PRECISION", "fp16", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFp16);
  // Tokens are strict: case variants and garbage warn and fall back.
  setenv("TPUPERF_PRECISION", "INT8", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFloat32);
  setenv("TPUPERF_PRECISION", "int9", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFloat32);
  setenv("TPUPERF_PRECISION", "", 1);
  EXPECT_EQ(PrecisionFromEnv(), Precision::kFloat32);
}

TEST(QuantEnv, ServiceConfigFromEnvPicksUpPrecision) {
  EnvGuard guard;
  setenv("TPUPERF_PRECISION", "int8", 1);
  EXPECT_EQ(serve::ServiceConfig::FromEnv().precision, Precision::kInt8);
  unsetenv("TPUPERF_PRECISION");
  EXPECT_EQ(serve::ServiceConfig::FromEnv().precision, Precision::kFloat32);
}

TEST(QuantEnv, PrecisionNamesAreTheEnvTokens) {
  EXPECT_EQ(PrecisionName(Precision::kFloat32), "f32");
  EXPECT_EQ(PrecisionName(Precision::kInt8), "int8");
  EXPECT_EQ(PrecisionName(Precision::kFp16), "fp16");
}

// ---- Ranking regression -----------------------------------------------------

// The end-to-end contract the bench gate enforces in CI, at test scale: a
// rank model trained in-process must rank enumerated tiles at int8/fp16
// within kQuantTauDegradationBound of its own f32 tau.
TEST(QuantRanking, TauSurvivesQuantization) {
  const char* scale_env = std::getenv("REPRO_SCALE");
  const double scale =
      scale_env != nullptr && std::atof(scale_env) > 0 ? std::atof(scale_env)
                                                       : 1.0;

  // Real fused kernels with real tile-runtime variation.
  ir::Program program = data::BuildProgram("ResNetV1", 0);
  sim::TpuSimulator simulator{sim::TpuTarget::V2()};
  const data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
  const std::vector<ir::Kernel> kernels = data::ApplyFusion(
      program.graph, edges, data::DefaultFusion(program.graph, edges));

  struct EvalKernel {
    const ir::Graph* graph;
    std::vector<ir::TileConfig> tiles;
    std::vector<double> truths;
  };
  std::vector<EvalKernel> eval_set;
  for (const auto& k : kernels) {
    if (eval_set.size() >= 4) break;
    EvalKernel e{&k.graph, simulator.EnumerateTiles(k.graph, 8), {}};
    if (e.tiles.size() < 2) continue;
    for (const auto& t : e.tiles) {
      e.truths.push_back(simulator.Measure(k.graph, t));
    }
    eval_set.push_back(std::move(e));
  }
  ASSERT_GE(eval_set.size(), 2u);

  core::LearnedCostModel model(SmallConfig());
  for (const EvalKernel& e : eval_set) {
    model.FitNodeScaler(*e.graph);
    for (const auto& t : e.tiles) model.FitTileScaler(t);
  }
  model.FinishFitting();

  // Train on the (kernel, tile) pairs with the pairwise rank loss.
  std::vector<core::PreparedKernel> train_prepared;
  for (const EvalKernel& e : eval_set) {
    train_prepared.push_back(model.Prepare(*e.graph));
  }
  std::vector<core::BatchItem> train_items;
  std::vector<double> targets;
  for (size_t ki = 0; ki < eval_set.size(); ++ki) {
    for (size_t ti = 0; ti < eval_set[ki].tiles.size(); ++ti) {
      train_items.push_back(
          {&train_prepared[ki], &eval_set[ki].tiles[ti]});
      targets.push_back(eval_set[ki].truths[ti]);
    }
  }
  const core::PreparedBatch train_batch = model.PrepareBatch(train_items);
  nn::Adam adam(nn::AdamConfig{});
  nn::TapeArena arena;
  nn::Tape tape(/*grad_enabled=*/true, &arena);
  const int steps = std::max(10, static_cast<int>(60 * scale));
  for (int step = 0; step < steps; ++step) {
    tape.Clear();
    nn::Tensor out = model.ForwardBatch(tape, train_batch, /*training=*/true);
    nn::Tensor loss = nn::PairwiseRankLoss(tape, out, targets,
                                           nn::RankSurrogate::kHinge);
    tape.Backward(loss);
    adam.Step(model.params().params());
  }

  const auto mean_tau = [&](Precision p) {
    model.SetPrecision(p);
    std::vector<core::PreparedKernel> prepared;
    for (const EvalKernel& e : eval_set) {
      prepared.push_back(model.Prepare(*e.graph));
    }
    double sum = 0;
    for (size_t ki = 0; ki < eval_set.size(); ++ki) {
      std::vector<core::BatchItem> items;
      for (const auto& t : eval_set[ki].tiles) {
        items.push_back({&prepared[ki], &t});
      }
      const std::vector<double> preds =
          model.PredictBatch(model.PrepareBatch(items));
      sum += eval::KendallTau(preds, eval_set[ki].truths);
    }
    return sum / static_cast<double>(eval_set.size());
  };

  const double tau_f32 = mean_tau(Precision::kFloat32);
  {
    std::vector<const core::PreparedKernel*> sample;
    for (const auto& pk : train_prepared) sample.push_back(&pk);
    model.CalibrateQuantization(sample);
  }
  const double tau_int8 = mean_tau(Precision::kInt8);
  const double tau_fp16 = mean_tau(Precision::kFp16);
  model.SetPrecision(Precision::kFloat32);

  EXPECT_GE(tau_int8, tau_f32 - kQuantTauDegradationBound)
      << "int8 degraded tau beyond the documented bound";
  EXPECT_GE(tau_fp16, tau_f32 - kQuantTauDegradationBound)
      << "fp16 degraded tau beyond the documented bound";
}

}  // namespace
}  // namespace tpuperf::nn
