#include "dataset/fusion.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/hash.h"

namespace tpuperf::data {
namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpCode;

bool IsInlinedInput(OpCode op) {
  return op == OpCode::kParameter || op == OpCode::kConstant ||
         op == OpCode::kIota;
}

// Union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  // Joins the sets of `a` and `b`; returns the root of the joined set.
  int Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[static_cast<size_t>(a)] = b;
    return b;
  }

 private:
  std::vector<int> parent_;
};

// Throws unless both endpoints of every edge are nodes of `graph`, so that
// an EdgeList built from another graph cannot index out of bounds.
void CheckEdgesInRange(const char* caller, const Graph& graph,
                       const EdgeList& edges) {
  const NodeId n = graph.num_nodes();
  for (const auto& edge : edges.edges) {
    if (edge.producer < 0 || edge.producer >= n || edge.consumer < 0 ||
        edge.consumer >= n) {
      throw std::invalid_argument(std::string(caller) +
                                  ": edge endpoint out of range");
    }
  }
}

}  // namespace

EdgeList EdgeList::FromGraph(const Graph& graph) {
  EdgeList list;
  for (const Node& n : graph.nodes()) {
    for (const NodeId operand : n.operands) {
      if (IsInlinedInput(graph.node(operand).op)) continue;
      list.edges.push_back(Edge{operand, n.id});
    }
  }
  return list;
}

std::uint64_t FusionConfig::Fingerprint() const {
  std::uint64_t h = 0xfeedc0ffee123457ull;
  for (size_t i = 0; i < fuse_edge.size(); ++i) {
    if (fuse_edge[i]) h = sim::HashCombine(h, static_cast<std::uint64_t>(i));
  }
  return h;
}

std::optional<std::vector<int>> DerivePartition(const Graph& graph,
                                                const EdgeList& edges,
                                                const FusionConfig& config,
                                                const FusionLimits& limits) {
  if (config.fuse_edge.size() != edges.edges.size()) {
    throw std::invalid_argument("DerivePartition: config/edge size mismatch");
  }
  CheckEdgesInRange("DerivePartition", graph, edges);
  const int n = graph.num_nodes();
  UnionFind uf(n);
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    if (config.fuse_edge[e]) {
      uf.Union(edges.edges[e].producer, edges.edges[e].consumer);
    }
  }

  // Compact group ids in order of each group's first node.
  std::vector<int> group_of(static_cast<size_t>(n), -1);
  std::vector<int> id_of_root(static_cast<size_t>(n), -1);
  int num_groups = 0;
  for (int i = 0; i < n; ++i) {
    int& id = id_of_root[static_cast<size_t>(uf.Find(i))];
    if (id < 0) id = num_groups++;
    group_of[static_cast<size_t>(i)] = id;
  }
  const auto groups = static_cast<size_t>(num_groups);

  // Group size bound (computation nodes only).
  std::vector<int> group_size(groups, 0);
  for (const Node& node : graph.nodes()) {
    if (IsInlinedInput(node.op)) continue;
    if (++group_size[static_cast<size_t>(
            group_of[static_cast<size_t>(node.id)])] >
        limits.max_group_nodes) {
      return std::nullopt;
    }
  }

  // Acyclicity of the condensed group graph (Kahn's algorithm over CSR
  // successor lists).
  std::vector<int> succ_begin(groups + 1, 0);
  std::vector<int> indegree(groups, 0);
  for (const Node& node : graph.nodes()) {
    const int g_to = group_of[static_cast<size_t>(node.id)];
    for (const NodeId operand : node.operands) {
      const int g_from = group_of[static_cast<size_t>(operand)];
      if (g_from == g_to) continue;
      ++succ_begin[static_cast<size_t>(g_from) + 1];
      ++indegree[static_cast<size_t>(g_to)];
    }
  }
  std::partial_sum(succ_begin.begin(), succ_begin.end(), succ_begin.begin());
  std::vector<int> succ(static_cast<size_t>(succ_begin[groups]));
  std::vector<int> cursor(succ_begin.begin(), succ_begin.end() - 1);
  for (const Node& node : graph.nodes()) {
    const int g_to = group_of[static_cast<size_t>(node.id)];
    for (const NodeId operand : node.operands) {
      const int g_from = group_of[static_cast<size_t>(operand)];
      if (g_from == g_to) continue;
      succ[static_cast<size_t>(cursor[static_cast<size_t>(g_from)]++)] = g_to;
    }
  }
  std::vector<int> ready;
  ready.reserve(groups);
  for (int g = 0; g < num_groups; ++g) {
    if (indegree[static_cast<size_t>(g)] == 0) ready.push_back(g);
  }
  for (size_t head = 0; head < ready.size(); ++head) {
    const auto g = static_cast<size_t>(ready[head]);
    for (int k = succ_begin[g]; k < succ_begin[g + 1]; ++k) {
      const int s = succ[static_cast<size_t>(k)];
      if (--indegree[static_cast<size_t>(s)] == 0) ready.push_back(s);
    }
  }
  if (ready.size() != groups) return std::nullopt;  // cycle
  return group_of;
}

std::vector<ir::Kernel> ExtractKernels(const Graph& graph,
                                       const std::vector<int>& group_of) {
  const int n = graph.num_nodes();
  if (group_of.size() != static_cast<size_t>(n)) {
    throw std::invalid_argument(
        "ExtractKernels: partition/graph size mismatch");
  }
  int num_groups = 0;
  for (const int g : group_of) {
    if (g < 0 || g >= n) {
      throw std::invalid_argument("ExtractKernels: group id out of range");
    }
    num_groups = std::max(num_groups, g + 1);
  }

  // Which nodes' values cross group boundaries or leave the program?
  std::vector<bool> crosses(static_cast<size_t>(n), false);
  {
    std::vector<bool> has_user(static_cast<size_t>(n), false);
    for (const Node& node : graph.nodes()) {
      for (const NodeId operand : node.operands) {
        has_user[static_cast<size_t>(operand)] = true;
        if (group_of[static_cast<size_t>(operand)] !=
            group_of[static_cast<size_t>(node.id)]) {
          crosses[static_cast<size_t>(operand)] = true;
        }
      }
    }
    for (const Node& node : graph.nodes()) {
      if (!has_user[static_cast<size_t>(node.id)] || node.is_output) {
        crosses[static_cast<size_t>(node.id)] = true;  // program output
      }
    }
  }

  // Members of every group in id (= topological) order, bucketed once.
  std::vector<int> member_begin(static_cast<size_t>(num_groups) + 1, 0);
  for (const int g : group_of) ++member_begin[static_cast<size_t>(g) + 1];
  std::partial_sum(member_begin.begin(), member_begin.end(),
                   member_begin.begin());
  std::vector<NodeId> members(static_cast<size_t>(n));
  {
    std::vector<int> cursor(member_begin.begin(), member_begin.end() - 1);
    for (NodeId id = 0; id < n; ++id) {
      const auto g = static_cast<size_t>(group_of[static_cast<size_t>(id)]);
      members[static_cast<size_t>(cursor[g]++)] = id;
    }
  }

  // Program node -> kernel node for the group being extracted; the entries
  // a group sets are reset before the next one.
  std::vector<NodeId> local_id(static_cast<size_t>(n), ir::kInvalidNode);
  std::vector<NodeId> bound;
  std::vector<ir::Kernel> kernels;
  for (int g = 0; g < num_groups; ++g) {
    const auto first = members.begin() + member_begin[static_cast<size_t>(g)];
    const auto last =
        members.begin() + member_begin[static_cast<size_t>(g) + 1];
    if (std::all_of(first, last, [&](NodeId id) {
          return IsInlinedInput(graph.node(id).op);
        })) {
      continue;  // inlined-inputs-only group: no kernel
    }
    for (const NodeId id : bound) {
      local_id[static_cast<size_t>(id)] = ir::kInvalidNode;
    }
    bound.clear();

    Graph kgraph;
    const auto bind = [&](NodeId program_id, Node node) {
      const NodeId local = kgraph.AddNode(std::move(node));
      local_id[static_cast<size_t>(program_id)] = local;
      bound.push_back(program_id);
      return local;
    };

    for (auto it = first; it != last; ++it) {
      const NodeId id = *it;
      const Node& node = graph.node(id);
      if (IsInlinedInput(node.op)) {
        // Materialized on first use below.
        continue;
      }
      Node copy = node;
      copy.operands.clear();
      for (const NodeId operand : node.operands) {
        const NodeId known = local_id[static_cast<size_t>(operand)];
        if (known != ir::kInvalidNode) {
          copy.operands.push_back(known);
          continue;
        }
        const Node& producer = graph.node(operand);
        Node input;
        // Inlined inputs keep their original opcode so the featurizer sees
        // parameter vs constant distinctions; a value from outside the
        // group becomes a parameter of this kernel.
        input.op = IsInlinedInput(producer.op) ? producer.op
                                               : OpCode::kParameter;
        input.shape = producer.shape;
        copy.operands.push_back(bind(operand, std::move(input)));
      }
      copy.is_output = crosses[static_cast<size_t>(id)];
      bind(id, std::move(copy));
    }

    ir::Kernel kernel;
    kernel.kind = ir::Kernel::Classify(kgraph);
    kernel.graph = std::move(kgraph);
    kernels.push_back(std::move(kernel));
  }
  return kernels;
}

std::vector<ir::Kernel> ApplyFusion(const Graph& graph, const EdgeList& edges,
                                    const FusionConfig& config,
                                    const FusionLimits& limits) {
  const auto partition = DerivePartition(graph, edges, config, limits);
  if (!partition.has_value()) {
    throw std::invalid_argument("ApplyFusion: invalid fusion configuration");
  }
  return ExtractKernels(graph, *partition);
}

FusionConfig DefaultFusion(const Graph& graph, const EdgeList& edges,
                           const FusionLimits& limits) {
  CheckEdgesInRange("DefaultFusion", graph, edges);
  const int n = graph.num_nodes();
  FusionConfig config;
  config.fuse_edge.assign(edges.edges.size(), false);

  // Users of every node as CSR lists (one entry per operand use).
  std::vector<int> user_begin(static_cast<size_t>(n) + 1, 0);
  for (const Node& node : graph.nodes()) {
    for (const NodeId operand : node.operands) {
      ++user_begin[static_cast<size_t>(operand) + 1];
    }
  }
  std::partial_sum(user_begin.begin(), user_begin.end(), user_begin.begin());
  std::vector<NodeId> users(static_cast<size_t>(user_begin.back()));
  {
    std::vector<int> cursor(user_begin.begin(), user_begin.end() - 1);
    for (const Node& node : graph.nodes()) {
      for (const NodeId operand : node.operands) {
        users[static_cast<size_t>(cursor[static_cast<size_t>(operand)]++)] =
            node.id;
      }
    }
  }

  // The groups of the current configuration, which is valid before and
  // after every step: union-find roots, computation nodes per root, and a
  // circular member list per group.
  UnionFind uf(n);
  std::vector<int> compute_nodes(static_cast<size_t>(n));
  std::vector<NodeId> next_member(static_cast<size_t>(n));
  for (const Node& node : graph.nodes()) {
    compute_nodes[static_cast<size_t>(node.id)] =
        IsInlinedInput(node.op) ? 0 : 1;
    next_member[static_cast<size_t>(node.id)] = node.id;
  }

  // True when group `to` is reachable from group `from` through a third
  // group, i.e. merging the two would close a cycle. Direct from -> to edges
  // are skipped: they become internal to the merged group. With the edges
  // of EdgeList::FromGraph the walk is short: every fused producer has one
  // user, so a group's only node with users outside it is its last one,
  // and for an edge p -> c that node is p itself.
  std::vector<int> visited(static_cast<size_t>(n), 0);
  int epoch = 0;
  std::vector<int> stack;
  const auto reaches_through_third = [&](int from, int to) {
    ++epoch;
    visited[static_cast<size_t>(from)] = epoch;
    stack.assign(1, from);
    while (!stack.empty()) {
      const int g = stack.back();
      stack.pop_back();
      NodeId member = g;
      do {
        const auto m = static_cast<size_t>(member);
        for (int k = user_begin[m]; k < user_begin[m + 1]; ++k) {
          const int h = uf.Find(users[static_cast<size_t>(k)]);
          if (h == to) {
            if (g != from) return true;
            continue;
          }
          if (visited[static_cast<size_t>(h)] == epoch) continue;
          visited[static_cast<size_t>(h)] = epoch;
          stack.push_back(h);
        }
        member = next_member[m];
      } while (member != g);
    }
    return false;
  };

  for (size_t e = 0; e < edges.edges.size(); ++e) {
    const auto& edge = edges.edges[e];
    const Node& producer = graph.node(edge.producer);
    const Node& consumer = graph.node(edge.consumer);
    const bool producer_cheap = ir::IsElementwise(producer.op) ||
                                ir::IsDataMovement(producer.op) ||
                                producer.op == OpCode::kReduce ||
                                producer.op == OpCode::kBatchNormInference;
    const bool epilogue_fusion =
        ir::UsesMatrixUnit(producer.op) &&
        (ir::IsElementwise(consumer.op) ||
         consumer.op == OpCode::kBatchNormInference ||
         consumer.op == OpCode::kReduce);
    // Single-consumer producers can fuse without duplication.
    const auto p = static_cast<size_t>(edge.producer);
    const bool single_user = user_begin[p + 1] - user_begin[p] == 1;
    if (!single_user) continue;
    if (!producer_cheap && !epilogue_fusion) continue;

    const int from = uf.Find(edge.producer);
    const int to = uf.Find(edge.consumer);
    if (from != to) {
      // Refuse edges that would create a cycle or an oversize group.
      const int merged_nodes = compute_nodes[static_cast<size_t>(from)] +
                               compute_nodes[static_cast<size_t>(to)];
      if (merged_nodes > limits.max_group_nodes) continue;
      // A dataflow edge p -> c rules out a path from c's group back to p's
      // in the (acyclic) current configuration. A pair that is not one, as
      // in a hand-built edge list, needs both directions checked.
      const bool dataflow =
          users[static_cast<size_t>(user_begin[p])] == edge.consumer;
      if (reaches_through_third(from, to) ||
          (!dataflow && reaches_through_third(to, from))) {
        continue;
      }
      compute_nodes[static_cast<size_t>(uf.Union(from, to))] = merged_nodes;
      std::swap(next_member[static_cast<size_t>(from)],
                next_member[static_cast<size_t>(to)]);
    }
    config.fuse_edge[e] = true;
  }
  return config;
}

FusionConfig RandomFusion(const Graph& graph, const EdgeList& edges,
                          std::mt19937_64& rng, double fuse_prob,
                          const FusionLimits& limits) {
  FusionConfig config;
  config.fuse_edge.assign(edges.edges.size(), false);
  std::bernoulli_distribution fuse(fuse_prob);
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    config.fuse_edge[e] = fuse(rng);
  }
  // Repair: unfuse random fused edges until the configuration is valid.
  std::vector<size_t> fused;
  for (size_t e = 0; e < edges.edges.size(); ++e) {
    if (config.fuse_edge[e]) fused.push_back(e);
  }
  std::shuffle(fused.begin(), fused.end(), rng);
  while (!DerivePartition(graph, edges, config, limits).has_value()) {
    if (fused.empty()) break;  // all-unfused is always valid
    config.fuse_edge[fused.back()] = false;
    fused.pop_back();
  }
  return config;
}

std::optional<FusionConfig> FlipOneEdge(const Graph& graph,
                                        const EdgeList& edges,
                                        const FusionConfig& config,
                                        std::mt19937_64& rng,
                                        const FusionLimits& limits) {
  if (edges.edges.empty()) return std::nullopt;
  FusionConfig next = config;
  std::uniform_int_distribution<size_t> pick(0, edges.edges.size() - 1);
  const size_t e = pick(rng);
  next.fuse_edge[e] = !next.fuse_edge[e];
  if (!DerivePartition(graph, edges, next, limits).has_value()) {
    return std::nullopt;
  }
  return next;
}

}  // namespace tpuperf::data
