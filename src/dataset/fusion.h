// Operator fusion: configurations, validity, extraction, and the compiler's
// default heuristic (paper §2.2, §2.3).
//
// Before fusion, a program graph's nodes are primitive tensor operations.
// A fusion configuration decides, for every dataflow edge between
// computation nodes, whether producer and consumer execute in the same
// kernel. Contracting the fused edges partitions the graph into kernels;
// a configuration is valid when the resulting kernel-level graph is acyclic
// (otherwise no execution order exists) and no kernel exceeds the group
// size bound. The autotuner searches this space (up to 2^40000
// configurations per program in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "ir/graph.h"
#include "ir/program.h"

namespace tpuperf::data {

// Canonical indexing of the fusible edges of a graph. Edges from
// parameter/constant/iota producers are excluded: pure inputs are always
// inlined into their consumer kernel and carry no fusion decision.
struct EdgeList {
  struct Edge {
    ir::NodeId producer = ir::kInvalidNode;
    ir::NodeId consumer = ir::kInvalidNode;
  };
  std::vector<Edge> edges;

  static EdgeList FromGraph(const ir::Graph& graph);
  int size() const noexcept { return static_cast<int>(edges.size()); }
};

// One fusion decision per EdgeList edge.
struct FusionConfig {
  std::vector<bool> fuse_edge;

  std::uint64_t Fingerprint() const;
};

struct FusionLimits {
  // Maximum computation nodes per fused kernel (mirrors XLA's fusion node
  // limits; also keeps simulated kernels within the size range of §4).
  int max_group_nodes = 48;
};

// Derives the node -> group id partition induced by `config`; groups are
// numbered in order of their lowest node id. Returns nullopt when the
// contracted group graph is cyclic or a group exceeds
// `limits.max_group_nodes`. Throws std::invalid_argument when `config` does
// not match `edges` or an edge endpoint is not a node of `graph`.
std::optional<std::vector<int>> DerivePartition(const ir::Graph& graph,
                                                const EdgeList& edges,
                                                const FusionConfig& config,
                                                const FusionLimits& limits = {});

// Materializes kernels from a partition. Cross-group values become
// parameters of the consumer kernel and outputs of the producer kernel;
// parameter/constant nodes are inlined (duplicated) into every consuming
// kernel. Groups containing only inlined inputs produce no kernel; the
// others yield one kernel each, in group id order. Throws
// std::invalid_argument unless `group_of` has one id in [0, num_nodes())
// per node.
std::vector<ir::Kernel> ExtractKernels(const ir::Graph& graph,
                                       const std::vector<int>& group_of);

// Convenience: partition + extraction; throws std::invalid_argument on an
// invalid configuration.
std::vector<ir::Kernel> ApplyFusion(const ir::Graph& graph,
                                    const EdgeList& edges,
                                    const FusionConfig& config,
                                    const FusionLimits& limits = {});

// The compiler's default fusion heuristic (§2.3): greedily fuse
// producer->consumer edges that save memory traffic — elementwise /
// data-movement / reduction producers with a single consumer, and
// dot/convolution outputs into elementwise epilogues — as long as the
// configuration stays valid. Edges are tried in list order. Validity is
// checked incrementally (group sizes, plus a walk over groups for a path
// that the merge would close into a cycle) and accepts exactly the edges
// that re-deriving the partition with DerivePartition would accept. Throws
// std::invalid_argument when an edge endpoint is not a node of `graph`.
FusionConfig DefaultFusion(const ir::Graph& graph, const EdgeList& edges,
                           const FusionLimits& limits = {});

// A random valid configuration: iid Bernoulli(fuse_prob) decisions,
// repaired by unfusing until valid. Used by the random-search dataset
// generation of §4.
FusionConfig RandomFusion(const ir::Graph& graph, const EdgeList& edges,
                          std::mt19937_64& rng, double fuse_prob,
                          const FusionLimits& limits = {});

// Simulated-annealing neighbourhood move: flip one random edge decision.
// Returns nullopt if the flipped configuration is invalid.
std::optional<FusionConfig> FlipOneEdge(const ir::Graph& graph,
                                        const EdgeList& edges,
                                        const FusionConfig& config,
                                        std::mt19937_64& rng,
                                        const FusionLimits& limits = {});

}  // namespace tpuperf::data
