// Tests for the fusion machinery: edge lists, partition validity (cycle
// detection, group size bounds), kernel extraction semantics, the default
// heuristic (checked against a per-edge reference), and random-configuration
// sampling (parameterized over seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>

#include "dataset/families.h"
#include "dataset/fusion.h"
#include "ir/builder.h"

namespace tpuperf::data {
namespace {

using ir::GraphBuilder;
using ir::NodeId;
using ir::OpCode;
using ir::Shape;

// param -> exp -> tanh -> (output); param -> abs -> tanh (diamond-ish).
ir::Graph ChainGraph() {
  GraphBuilder b;
  const NodeId p = b.Parameter(Shape({16, 16}));
  const NodeId e = b.Unary(OpCode::kExp, p);
  b.Unary(OpCode::kTanh, e);
  return std::move(b).Build();
}

// A diamond: fusing both outer edges while leaving the middle unfused
// creates a group cycle.
ir::Graph DiamondGraph() {
  GraphBuilder b;
  const NodeId p = b.Parameter(Shape({16, 16}));
  const NodeId a = b.Unary(OpCode::kExp, p);
  const NodeId left = b.Unary(OpCode::kAbs, a);
  const NodeId right = b.Unary(OpCode::kTanh, a);
  const NodeId mid = b.Unary(OpCode::kNegate, left);
  b.Binary(OpCode::kAdd, mid, right);
  return std::move(b).Build();
}

// The default heuristic as a per-edge greedy over whole-partition checks:
// set each candidate edge, re-derive the partition, and undo the edge if
// the configuration became invalid. DefaultFusion must match it exactly.
FusionConfig ReferenceDefaultFusion(const ir::Graph& graph,
                                    const EdgeList& edges,
                                    const FusionLimits& limits) {
  FusionConfig config;
  config.fuse_edge.assign(edges.edges.size(), false);
  std::vector<int> user_count(static_cast<size_t>(graph.num_nodes()), 0);
  for (const auto& node : graph.nodes()) {
    for (const NodeId operand : node.operands) {
      ++user_count[static_cast<size_t>(operand)];
    }
  }
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    const auto& edge = edges.edges[e];
    const auto& producer = graph.node(edge.producer);
    const auto& consumer = graph.node(edge.consumer);
    const bool producer_cheap = ir::IsElementwise(producer.op) ||
                                ir::IsDataMovement(producer.op) ||
                                producer.op == OpCode::kReduce ||
                                producer.op == OpCode::kBatchNormInference;
    const bool epilogue_fusion =
        ir::UsesMatrixUnit(producer.op) &&
        (ir::IsElementwise(consumer.op) ||
         consumer.op == OpCode::kBatchNormInference ||
         consumer.op == OpCode::kReduce);
    if (user_count[static_cast<size_t>(edge.producer)] != 1) continue;
    if (!producer_cheap && !epilogue_fusion) continue;
    config.fuse_edge[e] = true;
    if (!DerivePartition(graph, edges, config, limits).has_value()) {
      config.fuse_edge[e] = false;
    }
  }
  return config;
}

// param -> exp -> tanh -> negate.
ir::Graph ThreeOpChain() {
  GraphBuilder b;
  const NodeId p = b.Parameter(Shape({16, 16}));
  b.Unary(OpCode::kNegate, b.Unary(OpCode::kTanh, b.Unary(OpCode::kExp, p)));
  return std::move(b).Build();
}

TEST(EdgeList, ExcludesParameterProducers) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  // param->exp carries no decision; exp->tanh does.
  ASSERT_EQ(edges.size(), 1);
  EXPECT_EQ(g.node(edges.edges[0].producer).op, OpCode::kExp);
  EXPECT_EQ(g.node(edges.edges[0].consumer).op, OpCode::kTanh);
}

TEST(FusionConfig, FingerprintDistinguishesConfigs) {
  FusionConfig a;
  a.fuse_edge = {true, false, true};
  FusionConfig b;
  b.fuse_edge = {false, true, true};
  FusionConfig c;
  c.fuse_edge = {true, false, true};
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
}

TEST(DerivePartition, AllUnfusedIsValid) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  const auto partition = DerivePartition(g, edges, config);
  ASSERT_TRUE(partition.has_value());
  // Every computation node is its own group.
  std::set<int> groups(partition->begin(), partition->end());
  EXPECT_EQ(static_cast<int>(groups.size()), g.num_nodes());
}

TEST(DerivePartition, MergesFusedEdges) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge = {true};
  const auto partition = DerivePartition(g, edges, config);
  ASSERT_TRUE(partition.has_value());
  // exp (node 1) and tanh (node 2) share a group.
  EXPECT_EQ((*partition)[1], (*partition)[2]);
}

TEST(DerivePartition, RejectsGroupCycles) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  // Find edge ids: a->left, a->right, left->mid, mid->add, right->add.
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  // Fuse a with right, and mid with add: then group {a, right, add} would
  // need mid's group both after a's group (left->mid) and before it
  // (mid->add into the same group as a) — a cycle.
  int a_right = -1, mid_add = -1, right_add = -1;
  for (int e = 0; e < edges.size(); ++e) {
    const auto& edge = edges.edges[static_cast<size_t>(e)];
    if (g.node(edge.producer).op == OpCode::kExp &&
        g.node(edge.consumer).op == OpCode::kTanh) {
      a_right = e;
    }
    if (g.node(edge.producer).op == OpCode::kNegate) mid_add = e;
    if (g.node(edge.producer).op == OpCode::kTanh) right_add = e;
  }
  ASSERT_GE(a_right, 0);
  ASSERT_GE(right_add, 0);
  ASSERT_GE(mid_add, 0);
  // Fusing exp+tanh alone is acyclic: {exp,tanh} -> abs -> negate -> add.
  config.fuse_edge[static_cast<size_t>(a_right)] = true;
  ASSERT_TRUE(DerivePartition(g, edges, config).has_value());
  // Also fusing tanh+add pulls `add` into the group; the abs/negate branch
  // now both consumes from and produces into {exp, tanh, add}: a cycle.
  config.fuse_edge[static_cast<size_t>(right_add)] = true;
  EXPECT_FALSE(DerivePartition(g, edges, config).has_value());
  // Fusing the whole diamond into one group is acyclic again.
  FusionConfig all;
  all.fuse_edge.assign(static_cast<size_t>(edges.size()), true);
  EXPECT_TRUE(DerivePartition(g, edges, all).has_value());
}

TEST(DerivePartition, GroupIdsFollowFirstNodeOrder) {
  const auto g = DiamondGraph();  // 0 param, 1 exp, 2 abs, 3 tanh, 4 neg, 5 add
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  for (int e = 0; e < edges.size(); ++e) {
    const auto& edge = edges.edges[static_cast<size_t>(e)];
    if ((edge.producer == 1 && edge.consumer == 3) ||
        (edge.producer == 4 && edge.consumer == 5)) {
      config.fuse_edge[static_cast<size_t>(e)] = true;
    }
  }
  const auto partition = DerivePartition(g, edges, config);
  ASSERT_TRUE(partition.has_value());
  // Groups are numbered by their lowest node id: ExtractKernels emits
  // kernels in this order.
  EXPECT_EQ(*partition, (std::vector<int>{0, 1, 2, 1, 3, 3}));
}

TEST(DerivePartition, ThrowsOnEdgesOfAnotherGraph) {
  const auto small = ChainGraph();
  const auto large = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(large);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), false);
  EXPECT_THROW(DerivePartition(small, edges, config), std::invalid_argument);
  EdgeList negative;
  negative.edges.push_back({-1, 1});
  FusionConfig one;
  one.fuse_edge = {false};
  EXPECT_THROW(DerivePartition(small, negative, one), std::invalid_argument);
}

TEST(DerivePartition, EnforcesGroupSizeBound) {
  const auto g = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig config;
  config.fuse_edge.assign(static_cast<size_t>(edges.size()), true);
  FusionLimits limits;
  limits.max_group_nodes = 2;
  EXPECT_FALSE(DerivePartition(g, edges, config, limits).has_value());
}

TEST(ExtractKernels, CrossEdgesBecomeParamsAndOutputs) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig unfused;
  unfused.fuse_edge = {false};
  const auto kernels = ApplyFusion(g, edges, unfused);
  ASSERT_EQ(kernels.size(), 2u);
  // First kernel: param + exp, exp marked output.
  const auto& k0 = kernels[0].graph;
  EXPECT_FALSE(k0.Validate().has_value());
  bool exp_is_output = false;
  for (const auto& n : k0.nodes()) {
    if (n.op == OpCode::kExp) exp_is_output = n.is_output;
  }
  EXPECT_TRUE(exp_is_output);
  // Second kernel: a parameter standing for exp's value + tanh.
  const auto& k1 = kernels[1].graph;
  EXPECT_FALSE(k1.Validate().has_value());
  EXPECT_EQ(k1.ParameterIds().size(), 1u);
}

TEST(ExtractKernels, FusedChainYieldsOneKernel) {
  const auto g = ChainGraph();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionConfig fused;
  fused.fuse_edge = {true};
  const auto kernels = ApplyFusion(g, edges, fused);
  ASSERT_EQ(kernels.size(), 1u);
  int compute_nodes = 0;
  for (const auto& n : kernels[0].graph.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant) {
      ++compute_nodes;
    }
  }
  EXPECT_EQ(compute_nodes, 2);  // exp + tanh
}

TEST(ExtractKernels, ThrowsOnPartitionOfAnotherGraph) {
  const auto g = DiamondGraph();
  EXPECT_THROW(ExtractKernels(g, std::vector<int>{0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW(ExtractKernels(g, std::vector<int>{0, 1, 2, 3, 4, 5, 6}),
               std::invalid_argument);
  EXPECT_THROW(ExtractKernels(g, std::vector<int>{0, 1, -1, 3, 4, 5}),
               std::invalid_argument);
  EXPECT_THROW(ExtractKernels(g, std::vector<int>{0, 1, 2, 3, 4, 6}),
               std::invalid_argument);
  EXPECT_EQ(ExtractKernels(g, std::vector<int>{0, 1, 2, 3, 4, 5}).size(), 5u);
}

TEST(ExtractKernels, PreservesComputeNodeCount) {
  const ir::Program program = BuildProgram("NMT", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  int program_compute = 0;
  for (const auto& n : program.graph.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant &&
        n.op != OpCode::kIota) {
      ++program_compute;
    }
  }
  for (const double p : {0.0, 0.4, 0.9}) {
    std::mt19937_64 rng(7);
    const FusionConfig config =
        p == 0.0 ? DefaultFusion(program.graph, edges)
                 : RandomFusion(program.graph, edges, rng, p);
    const auto kernels = ApplyFusion(program.graph, edges, config);
    int total = 0;
    for (const auto& k : kernels) {
      EXPECT_FALSE(k.graph.Validate().has_value());
      for (const auto& n : k.graph.nodes()) {
        if (n.op != OpCode::kParameter && n.op != OpCode::kConstant &&
            n.op != OpCode::kIota) {
          ++total;
        }
      }
    }
    EXPECT_EQ(total, program_compute) << "fuse_prob=" << p;
  }
}

TEST(DefaultFusion, IsValidAndFusesSomething) {
  const ir::Program program = BuildProgram("ResNetV1", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  const FusionConfig config = DefaultFusion(program.graph, edges);
  EXPECT_TRUE(DerivePartition(program.graph, edges, config).has_value());
  int fused = 0;
  for (const bool f : config.fuse_edge) fused += f ? 1 : 0;
  EXPECT_GT(fused, 0);
  // Default fusion reduces kernel count vs no fusion.
  FusionConfig none;
  none.fuse_edge.assign(config.fuse_edge.size(), false);
  EXPECT_LT(ApplyFusion(program.graph, edges, config).size(),
            ApplyFusion(program.graph, edges, none).size());
}

TEST(DefaultFusion, MatchesPerEdgeReferenceOnCorpus) {
  int programs = 0;
  for (const ir::Program& program : GenerateCorpus()) {
    const EdgeList edges = EdgeList::FromGraph(program.graph);
    for (const int max_nodes : {1, 2, 3, 8, 48}) {
      FusionLimits limits;
      limits.max_group_nodes = max_nodes;
      ASSERT_EQ(DefaultFusion(program.graph, edges, limits).fuse_edge,
                ReferenceDefaultFusion(program.graph, edges, limits).fuse_edge)
          << program.name << " max_group_nodes=" << max_nodes;
    }
    ++programs;
  }
  EXPECT_GT(programs, 50);
}

// Hand-built edge lists may pair nodes that are not producer and consumer
// and may list edges in any order; the cycle check must still accept
// exactly what DerivePartition accepts.
TEST(DefaultFusion, MatchesPerEdgeReferenceOnShuffledAndExtraEdges) {
  std::mt19937_64 rng(11);
  const auto corpus = GenerateCorpus();
  for (size_t i = 0; i < corpus.size(); i += 4) {
    const ir::Graph& graph = corpus[i].graph;
    EdgeList edges = EdgeList::FromGraph(graph);
    std::uniform_int_distribution<NodeId> node(0, graph.num_nodes() - 1);
    for (int k = 0; k < edges.size() / 2; ++k) {
      NodeId a = node(rng);
      NodeId b = node(rng);
      if (a == b) continue;
      edges.edges.push_back({a, b});
    }
    std::shuffle(edges.edges.begin(), edges.edges.end(), rng);
    for (const int max_nodes : {3, 48}) {
      FusionLimits limits;
      limits.max_group_nodes = max_nodes;
      const FusionConfig config = DefaultFusion(graph, edges, limits);
      ASSERT_EQ(config.fuse_edge,
                ReferenceDefaultFusion(graph, edges, limits).fuse_edge)
          << corpus[i].name << " max_group_nodes=" << max_nodes;
      EXPECT_TRUE(DerivePartition(graph, edges, config, limits).has_value());
    }
  }
}

// Diamond p -> x -> c plus a p/c pair: fusing the pair alone would put
// x's group both after and before {p, c}.
TEST(DefaultFusion, RefusesMergeThatClosesACycle) {
  GraphBuilder b;
  const NodeId param = b.Parameter(Shape({16, 16}));
  const NodeId p = b.Unary(OpCode::kExp, param);
  const NodeId x = b.Unary(OpCode::kAbs, p);
  const NodeId c = b.Unary(OpCode::kTanh, x);
  b.Unary(OpCode::kNegate, c);
  const ir::Graph g = std::move(b).Build();
  FusionConfig pair;
  pair.fuse_edge = {true};
  // The pair in either order: the path runs from the producer's group to
  // the consumer's, or back from the consumer's to the producer's.
  for (const EdgeList::Edge edge :
       {EdgeList::Edge{p, c}, EdgeList::Edge{c, p}}) {
    EdgeList edges;
    edges.edges = {edge};
    ASSERT_FALSE(DerivePartition(g, edges, pair).has_value());
    EXPECT_EQ(DefaultFusion(g, edges).fuse_edge, std::vector<bool>{false});
  }
  // Listing the path's edges first grows one group that the pair joins.
  EdgeList edges;
  edges.edges = {{p, x}, {x, c}, {p, c}};
  EXPECT_EQ(DefaultFusion(g, edges).fuse_edge,
            (std::vector<bool>{true, true, true}));
}

TEST(DefaultFusion, FusesEdgeInsideOneGroup) {
  const auto g = ThreeOpChain();
  EdgeList edges = EdgeList::FromGraph(g);
  ASSERT_EQ(edges.size(), 2);
  edges.edges.push_back(edges.edges[0]);  // already merged when reached
  EXPECT_EQ(DefaultFusion(g, edges).fuse_edge,
            (std::vector<bool>{true, true, true}));
  FusionLimits one;
  one.max_group_nodes = 1;
  EXPECT_EQ(DefaultFusion(g, edges, one).fuse_edge,
            (std::vector<bool>{false, false, false}));
}

TEST(DefaultFusion, RefusesMergeOverSizeBound) {
  const auto g = ThreeOpChain();
  const EdgeList edges = EdgeList::FromGraph(g);
  FusionLimits limits;
  limits.max_group_nodes = 2;
  // exp+tanh fill the bound; negate stays alone.
  EXPECT_EQ(DefaultFusion(g, edges, limits).fuse_edge,
            (std::vector<bool>{true, false}));
  limits.max_group_nodes = 3;
  EXPECT_EQ(DefaultFusion(g, edges, limits).fuse_edge,
            (std::vector<bool>{true, true}));
}

TEST(DefaultFusion, ThrowsOnEdgesOfAnotherGraph) {
  const auto large = DiamondGraph();
  const EdgeList edges = EdgeList::FromGraph(large);
  EXPECT_THROW(DefaultFusion(ChainGraph(), edges), std::invalid_argument);
}

// Property: RandomFusion always yields a valid configuration, across seeds
// and fusion probabilities.
class RandomFusionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(RandomFusionPropertyTest, AlwaysValid) {
  const auto [seed, prob] = GetParam();
  const ir::Program program = BuildProgram("TransformerLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
  const FusionConfig config = RandomFusion(program.graph, edges, rng, prob);
  EXPECT_TRUE(DerivePartition(program.graph, edges, config).has_value());
  EXPECT_NO_THROW(ApplyFusion(program.graph, edges, config));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProbs, RandomFusionPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 17, 99),
                       ::testing::Values(0.1, 0.5, 0.9)));

TEST(FlipOneEdge, ProducesValidNeighborsOrNothing) {
  const ir::Program program = BuildProgram("RNNLM", 0);
  const EdgeList edges = EdgeList::FromGraph(program.graph);
  std::mt19937_64 rng(5);
  FusionConfig config = DefaultFusion(program.graph, edges);
  int moved = 0;
  for (int i = 0; i < 50; ++i) {
    const auto next = FlipOneEdge(program.graph, edges, config, rng);
    if (!next.has_value()) continue;
    EXPECT_TRUE(DerivePartition(program.graph, edges, *next).has_value());
    // Exactly one decision differs.
    int diff = 0;
    for (size_t e = 0; e < config.fuse_edge.size(); ++e) {
      diff += config.fuse_edge[e] != next->fuse_edge[e] ? 1 : 0;
    }
    EXPECT_EQ(diff, 1);
    config = *next;
    ++moved;
  }
  EXPECT_GT(moved, 25);
}

}  // namespace
}  // namespace tpuperf::data
