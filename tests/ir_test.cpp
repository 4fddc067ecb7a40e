// Unit tests for the HLO-like IR: shapes, opcode classification, graph
// invariants, fingerprints, and the builder's shape inference.
#include <gtest/gtest.h>

#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/analysis.h"
#include "ir/builder.h"
#include "ir/graph.h"
#include "ir/opcode.h"
#include "ir/shape.h"

namespace tpuperf::ir {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.byte_size(), 96);  // f32
  EXPECT_EQ(s.minor_dim(), 2);   // row-major default: last dim fastest
  EXPECT_EQ(s.ToString(), "f32[2,3,4]{2,1,0}");
}

TEST(Shape, ElementTypes) {
  EXPECT_EQ(Shape({4}, ElementType::kBF16).byte_size(), 8);
  EXPECT_EQ(Shape({4}, ElementType::kPred).byte_size(), 4);
  EXPECT_EQ(Shape({4}, ElementType::kS32).byte_size(), 16);
}

TEST(Shape, RejectsNonPositiveDims) {
  EXPECT_THROW(Shape({0, 3}), std::invalid_argument);
  EXPECT_THROW(Shape({-1}), std::invalid_argument);
}

TEST(Shape, CustomLayout) {
  Shape s({2, 3});
  s.set_minor_to_major({0, 1});
  EXPECT_EQ(s.minor_dim(), 0);
  EXPECT_THROW(s.set_minor_to_major({0, 0}), std::invalid_argument);
  EXPECT_THROW(s.set_minor_to_major({0}), std::invalid_argument);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3}, ElementType::kBF16));
}

TEST(Window, TapCount) {
  Window w;
  w.dims = {WindowDim{3, 1, 1, 1, 1}, WindowDim{5, 2, 2, 2, 1}};
  EXPECT_EQ(w.TapCount(), 15);
  EXPECT_TRUE(Window{}.empty());
}

TEST(OpCode, Names) {
  EXPECT_EQ(ToString(OpCode::kConvolution), "convolution");
  EXPECT_EQ(ToString(OpCode::kParameter), "parameter");
  EXPECT_EQ(ToString(OpCode::kBatchNormInference), "batch-norm-inference");
}

// Every opcode has a printable, unique name.
TEST(OpCode, AllNamesUniqueAndValid) {
  std::set<std::string_view> seen;
  for (int i = 0; i < kNumOpCodes; ++i) {
    const auto name = ToString(static_cast<OpCode>(i));
    EXPECT_NE(name, "invalid");
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
}

// Classification partitions: no op is both MXU and data movement, etc.
class OpCodeClassTest : public ::testing::TestWithParam<int> {};

TEST_P(OpCodeClassTest, ClassesAreConsistent) {
  const auto op = static_cast<OpCode>(GetParam());
  if (UsesMatrixUnit(op)) {
    EXPECT_FALSE(IsElementwise(op));
    EXPECT_FALSE(IsDataMovement(op));
  }
  if (IsDataMovement(op)) {
    EXPECT_FALSE(IsElementwise(op));
    EXPECT_FALSE(IsTranscendental(op));
  }
  if (IsElementwiseUnary(op)) {
    EXPECT_TRUE(IsElementwise(op));
    EXPECT_EQ(ExpectedOperandCount(op), 1);
  }
  if (IsElementwiseBinary(op)) {
    EXPECT_TRUE(IsElementwise(op));
    EXPECT_EQ(ExpectedOperandCount(op), 2);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOpCodes, OpCodeClassTest,
                         ::testing::Range(0, kNumOpCodes));

TEST(Graph, OperandOrderingInvariant) {
  Graph g;
  Node p;
  p.op = OpCode::kParameter;
  p.shape = Shape({4});
  const NodeId a = g.AddNode(p);
  Node bad;
  bad.op = OpCode::kNegate;
  bad.shape = Shape({4});
  bad.operands = {5};  // forward reference
  EXPECT_THROW(g.AddNode(bad), std::invalid_argument);
  Node ok = bad;
  ok.operands = {a};
  EXPECT_NO_THROW(g.AddNode(ok));
}

TEST(Graph, UsersOutputsRoot) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({8, 8}));
  const NodeId y = b.Unary(OpCode::kExp, x);
  const NodeId z = b.Unary(OpCode::kTanh, y);
  const Graph g = std::move(b).Build();
  const auto users = g.UserLists();
  EXPECT_EQ(users[static_cast<size_t>(x)].size(), 1u);
  EXPECT_EQ(users[static_cast<size_t>(z)].size(), 0u);
  EXPECT_EQ(g.OutputIds(), std::vector<NodeId>{z});
  EXPECT_EQ(g.RootId(), z);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.Validate().has_value());
}

TEST(Graph, RootIsLargestOutput) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({8, 8}));
  const NodeId small = b.Reduce(x, {0, 1});
  const NodeId big = b.Unary(OpCode::kExp, x);
  b.MarkOutput(small);
  b.MarkOutput(big);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.RootId(), big);
}

TEST(Graph, ValidateCatchesOperandCount) {
  Graph g;
  Node p;
  p.op = OpCode::kParameter;
  p.shape = Shape({4});
  g.AddNode(p);
  Node add;
  add.op = OpCode::kAdd;
  add.shape = Shape({4});
  add.operands = {0};  // add needs 2
  g.AddNode(add);
  EXPECT_TRUE(g.Validate().has_value());
}

TEST(Graph, FingerprintStableAndDiscriminating) {
  const auto build = [](std::int64_t dim) {
    GraphBuilder b;
    const NodeId x = b.Parameter(Shape({dim, 16}));
    b.Unary(OpCode::kExp, x);
    return std::move(b).Build();
  };
  EXPECT_EQ(build(8).Fingerprint(), build(8).Fingerprint());
  EXPECT_NE(build(8).Fingerprint(), build(16).Fingerprint());
}

TEST(Graph, FingerprintSensitiveToEdgesAndOutputs) {
  GraphBuilder b1;
  const NodeId p1 = b1.Parameter(Shape({4}));
  const NodeId q1 = b1.Parameter(Shape({4}));
  b1.Binary(OpCode::kAdd, p1, q1);
  GraphBuilder b2;
  const NodeId p2 = b2.Parameter(Shape({4}));
  const NodeId q2 = b2.Parameter(Shape({4}));
  b2.Binary(OpCode::kAdd, q2, p2);  // reversed operand order
  EXPECT_NE(std::move(b1).Build().Fingerprint(),
            std::move(b2).Build().Fingerprint());
}

// Byte-serial FNV-1a over the fields Graph::Fingerprint walks, 8 bytes per
// field: the definition stored fingerprints were written with.
std::uint64_t ByteSerialFingerprint(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Node& n : g.nodes()) {
    mix(static_cast<std::uint64_t>(n.op));
    mix(static_cast<std::uint64_t>(n.shape.element_type()));
    for (const auto d : n.shape.dims()) mix(static_cast<std::uint64_t>(d));
    for (const int l : n.shape.minor_to_major()) {
      mix(static_cast<std::uint64_t>(l) + 17);
    }
    for (const NodeId operand : n.operands) {
      mix(static_cast<std::uint64_t>(operand) + 1000003);
    }
    for (const auto& w : n.window.dims) {
      mix(static_cast<std::uint64_t>(w.size));
      mix(static_cast<std::uint64_t>(w.stride) + 3);
      mix(static_cast<std::uint64_t>(w.padding_low) + 7);
    }
    for (const int d : n.reduce_dims) mix(static_cast<std::uint64_t>(d) + 31);
    mix(n.is_output ? 2 : 1);
  }
  return h;
}

TEST(Graph, FingerprintMatchesByteSerialFnvOverCorpus) {
  int graphs = 0;
  for (const Program& program : data::GenerateCorpus()) {
    ASSERT_EQ(program.graph.Fingerprint(),
              ByteSerialFingerprint(program.graph))
        << program.name;
    const data::EdgeList edges = data::EdgeList::FromGraph(program.graph);
    for (const Kernel& kernel : data::ApplyFusion(
             program.graph, edges, data::DefaultFusion(program.graph, edges))) {
      ASSERT_EQ(kernel.graph.Fingerprint(), ByteSerialFingerprint(kernel.graph))
          << program.name;
      // The one-walk pair equals the two separate walks.
      const Graph::Hashes hashes = kernel.graph.FingerprintAndSignature();
      ASSERT_EQ(hashes.fingerprint, kernel.graph.Fingerprint()) << program.name;
      ASSERT_EQ(hashes.signature, kernel.graph.StructuralSignature())
          << program.name;
      ++graphs;
    }
  }
  EXPECT_GT(graphs, 500);
}

TEST(Graph, ToStringContainsNodes) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 2}));
  b.Unary(OpCode::kExp, x);
  const std::string dump = std::move(b).Build().ToString();
  EXPECT_NE(dump.find("parameter"), std::string::npos);
  EXPECT_NE(dump.find("exp"), std::string::npos);
}

// ---- Builder shape inference ------------------------------------------------

TEST(Builder, DotShapes) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({8, 16}));
  const NodeId w = b.Parameter(Shape({16, 32}));
  const NodeId y = b.Dot(x, w);
  EXPECT_EQ(b.shape_of(y).dims(), (std::vector<std::int64_t>{8, 32}));
  const NodeId bad = b.Parameter(Shape({8, 32}));
  EXPECT_THROW(b.Dot(x, bad), std::invalid_argument);
}

TEST(Builder, Conv2dSameAndValid) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 16, 16, 3}));
  const NodeId w = b.Parameter(Shape({3, 3, 3, 8}));
  const NodeId same = b.Conv2d(x, w, 1, Padding::kSame);
  EXPECT_EQ(b.shape_of(same).dims(), (std::vector<std::int64_t>{2, 16, 16, 8}));
  const NodeId valid = b.Conv2d(x, w, 1, Padding::kValid);
  EXPECT_EQ(b.shape_of(valid).dims(),
            (std::vector<std::int64_t>{2, 14, 14, 8}));
  const NodeId strided = b.Conv2d(x, w, 2, Padding::kSame);
  EXPECT_EQ(b.shape_of(strided).dims(),
            (std::vector<std::int64_t>{2, 8, 8, 8}));
  // Window metadata recorded for cost analysis.
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.node(same).window.dims.size(), 2u);
  EXPECT_EQ(g.node(same).feature_in, 3);
  EXPECT_EQ(g.node(same).feature_out, 8);
}

TEST(Builder, PoolReduceSoftmax) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 16, 16, 8}));
  const NodeId pooled = b.Pool2d(x, 2, 2);
  EXPECT_EQ(b.shape_of(pooled).dims(),
            (std::vector<std::int64_t>{2, 8, 8, 8}));
  const NodeId reduced = b.Reduce(pooled, {1, 2});
  EXPECT_EQ(b.shape_of(reduced).dims(), (std::vector<std::int64_t>{2, 8}));
  const NodeId sm = b.Softmax(reduced);
  EXPECT_EQ(b.shape_of(sm).dims(), b.shape_of(reduced).dims());
}

TEST(Builder, ReshapeMustPreserveElements) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({4, 4}));
  EXPECT_NO_THROW(b.Reshape(x, Shape({16})));
  EXPECT_THROW(b.Reshape(x, Shape({15})), std::invalid_argument);
}

TEST(Builder, ConcatenateAndTranspose) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({2, 3}));
  const NodeId y = b.Parameter(Shape({2, 5}));
  const NodeId c = b.Concatenate({x, y}, 1);
  EXPECT_EQ(b.shape_of(c).dims(), (std::vector<std::int64_t>{2, 8}));
  const NodeId t = b.Transpose(c, {1, 0});
  EXPECT_EQ(b.shape_of(t).dims(), (std::vector<std::int64_t>{8, 2}));
}

TEST(Builder, DenseEmitsDotBiasRelu) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({4, 8}));
  const NodeId y = b.Dense(x, 16);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.node(y).op, OpCode::kMaximum);  // relu = max(x, 0)
  int dots = 0;
  for (const Node& n : g.nodes()) {
    if (n.op == OpCode::kDot) ++dots;
  }
  EXPECT_EQ(dots, 1);
}

// ---- Cost analysis -----------------------------------------------------------

TEST(Analysis, DotFlops) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({8, 16}));
  const NodeId w = b.Parameter(Shape({16, 32}));
  b.Dot(x, w);
  const Graph g = std::move(b).Build();
  const auto cost = analysis::AnalyzeKernel(g);
  EXPECT_DOUBLE_EQ(cost.mxu_flops, 8.0 * 32.0 * 2.0 * 16.0);
  EXPECT_EQ(cost.bytes_read, (8 * 16 + 16 * 32) * 4);
  EXPECT_EQ(cost.bytes_written, 8 * 32 * 4);
}

TEST(Analysis, ConvFlops) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({1, 8, 8, 4}));
  const NodeId w = b.Parameter(Shape({3, 3, 4, 16}));
  b.Conv2d(x, w, 1, Padding::kSame);
  const Graph g = std::move(b).Build();
  const auto cost = analysis::AnalyzeKernel(g);
  EXPECT_DOUBLE_EQ(cost.mxu_flops, 1.0 * 8 * 8 * 16 * 2 * 9 * 4);
}

TEST(Analysis, TranscendentalCounted) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({32}));
  b.Unary(OpCode::kExp, x);
  const Graph g = std::move(b).Build();
  EXPECT_DOUBLE_EQ(analysis::AnalyzeKernel(g).transcendental_ops, 32.0);
}

TEST(Analysis, ScratchpadFootprintPositive) {
  GraphBuilder b;
  const NodeId x = b.Parameter(Shape({64, 64}));
  b.Unary(OpCode::kExp, x);
  const Graph g = std::move(b).Build();
  EXPECT_GE(analysis::ScratchpadBytesPerOutputElement(g), 8.0);
}

}  // namespace
}  // namespace tpuperf::ir
