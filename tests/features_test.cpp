// Tests for featurization (paper §3.1) and min-max scaling (footnote 1).
#include <gtest/gtest.h>

#include <cmath>

#include "features/featurizer.h"
#include "features/scaler.h"
#include "ir/builder.h"

namespace tpuperf::feat {
namespace {

using ir::GraphBuilder;
using ir::NodeId;
using ir::OpCode;
using ir::Padding;
using ir::Shape;

TEST(Scaler, TransformsToUnitRangeAndClamps) {
  FeatureScaler scaler(2);
  scaler.Observe(std::vector<double>{0.0, 10.0});
  scaler.Observe(std::vector<double>{4.0, 30.0});
  EXPECT_DOUBLE_EQ(scaler.Transform(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.Transform(0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.Transform(0, 2.0), 0.5);
  // Unseen test values clamp into [0, 1].
  EXPECT_DOUBLE_EQ(scaler.Transform(0, -5.0), 0.0);
  EXPECT_DOUBLE_EQ(scaler.Transform(0, 99.0), 1.0);
  EXPECT_DOUBLE_EQ(scaler.Transform(1, 20.0), 0.5);
}

TEST(Scaler, ConstantFeatureMapsToZero) {
  FeatureScaler scaler(1);
  scaler.Observe(std::vector<double>{7.0});
  scaler.Observe(std::vector<double>{7.0});
  EXPECT_DOUBLE_EQ(scaler.Transform(0, 7.0), 0.0);
}

TEST(Scaler, RowTransformsAndWidthChecks) {
  FeatureScaler scaler(2);
  scaler.Observe(std::vector<double>{0.0, 0.0});
  scaler.Observe(std::vector<double>{2.0, 4.0});
  std::vector<double> row = {1.0, 1.0};
  scaler.TransformRow(row);
  EXPECT_DOUBLE_EQ(row[0], 0.5);
  EXPECT_DOUBLE_EQ(row[1], 0.25);
  std::vector<double> bad = {1.0};
  EXPECT_THROW(scaler.TransformRow(bad), std::invalid_argument);
  EXPECT_THROW(scaler.Observe(bad), std::invalid_argument);
}

ir::Graph ConvKernel() {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 8, 8, 4}));
  const NodeId w = b.Parameter(Shape({3, 3, 4, 16}));
  const NodeId c = b.Conv2d(x, w, 2, Padding::kSame);
  b.Unary(OpCode::kTanh, c);
  return std::move(b).Build();
}

TEST(Featurizer, ShapesAndOpcodes) {
  const auto kernel = ConvKernel();
  const KernelFeatures kf = FeaturizeKernel(kernel);
  ASSERT_EQ(kf.num_nodes(), kernel.num_nodes());
  ASSERT_EQ(kf.node_scalars.size(), static_cast<size_t>(kernel.num_nodes()));
  for (const auto& row : kf.node_scalars) {
    EXPECT_EQ(row.size(), static_cast<size_t>(kNodeScalarFeatures));
  }
  for (int i = 0; i < kernel.num_nodes(); ++i) {
    EXPECT_EQ(kf.opcode_ids[static_cast<size_t>(i)],
              static_cast<int>(kernel.node(i).op));
    EXPECT_EQ(kf.operand_lists[static_cast<size_t>(i)].size(),
              kernel.node(i).operands.size());
  }
  EXPECT_EQ(kf.static_perf.size(), static_cast<size_t>(kStaticPerfFeatures));
  EXPECT_GT(kf.static_perf[0], 0.0);  // log1p(flops) of a conv
}

TEST(Featurizer, OutputFlagSetOnRoot) {
  const auto kernel = ConvKernel();
  const KernelFeatures kf = FeaturizeKernel(kernel);
  const ir::NodeId root = kernel.RootId();
  // Feature 30 is the is_output flag (see featurizer.cpp layout comment).
  EXPECT_DOUBLE_EQ(kf.node_scalars[static_cast<size_t>(root)][30], 1.0);
  EXPECT_DOUBLE_EQ(kf.node_scalars[0][30], 0.0);  // the parameter node
}

TEST(Featurizer, WindowFeaturesForConv) {
  const auto kernel = ConvKernel();
  const KernelFeatures kf = FeaturizeKernel(kernel);
  // Find the conv node.
  int conv = -1;
  for (const auto& n : kernel.nodes()) {
    if (n.op == OpCode::kConvolution) conv = n.id;
  }
  ASSERT_GE(conv, 0);
  const auto& row = kf.node_scalars[static_cast<size_t>(conv)];
  EXPECT_DOUBLE_EQ(row[16], 3.0);  // window size h
  EXPECT_DOUBLE_EQ(row[17], 3.0);  // window size w
  EXPECT_DOUBLE_EQ(row[20], 2.0);  // stride h
  EXPECT_GT(row[32], 0.0);         // feature_in
  EXPECT_GT(row[33], 0.0);         // feature_out
}

TEST(TileFeatures, RawLogSumProduct) {
  const ir::TileConfig tile{{4, 8}};
  const auto f = TileFeatures(tile);
  ASSERT_EQ(f.size(), static_cast<size_t>(kTileFeatures));
  EXPECT_DOUBLE_EQ(f[0], 4.0);  // raw dims
  EXPECT_DOUBLE_EQ(f[1], 8.0);
  EXPECT_DOUBLE_EQ(f[ir::kMaxEncodedRank], std::log1p(4.0));
  EXPECT_DOUBLE_EQ(f[ir::kMaxEncodedRank + 1], std::log1p(8.0));
  EXPECT_DOUBLE_EQ(f[2 * ir::kMaxEncodedRank], std::log1p(12.0));      // sum
  EXPECT_DOUBLE_EQ(f[2 * ir::kMaxEncodedRank + 1], std::log1p(32.0));  // prod
}

TEST(TileFeatures, TruncationKeepsSumAndProduct) {
  // Rank 8 exceeds kMaxEncodedRank=6: dims truncate, but sum/product cover
  // all values ("the product could not be recovered by the model", §3.1).
  ir::TileConfig tile;
  tile.dims = {2, 2, 2, 2, 2, 2, 2, 2};
  const auto f = TileFeatures(tile);
  EXPECT_DOUBLE_EQ(f[2 * ir::kMaxEncodedRank], std::log1p(16.0));
  EXPECT_DOUBLE_EQ(f[2 * ir::kMaxEncodedRank + 1], std::log1p(256.0));
}

TEST(Featurizer, HighRankShapeTruncatesButKeepsVolume) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 2, 2, 2, 2, 2, 2}));  // rank 7
  b.Unary(OpCode::kExp, x);
  const auto kernel = std::move(b).Build();
  const KernelFeatures kf = FeaturizeKernel(kernel);
  const auto& row = kf.node_scalars[0];
  EXPECT_DOUBLE_EQ(row[0], 7.0);                  // rank recorded
  EXPECT_DOUBLE_EQ(row[8], std::log1p(128.0));    // product covers all dims
}

}  // namespace
}  // namespace tpuperf::feat
