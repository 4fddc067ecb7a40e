// Kernel graphs: directed acyclic dataflow graphs of tensor operations.
//
// After XLA's fusion pass, a program is a set of kernels; each kernel is a
// small graph of primitive operations (paper Fig. 2). `Graph` is the node
// container used both for whole (pre-fusion) programs and for individual
// kernels; `Kernel` adds kernel-level metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/node.h"

namespace tpuperf::ir {

class Graph {
 public:
  Graph() = default;

  // Appends a node; assigns and returns its id. Throws std::invalid_argument
  // if any operand id is out of range or >= the new node's id (the invariant
  // that keeps the graph acyclic and topologically ordered).
  NodeId AddNode(Node node);

  int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id)); }
  Node& mutable_node(NodeId id) { return nodes_.at(static_cast<size_t>(id)); }
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  // Users of each node (inverse edges), recomputed on demand.
  std::vector<std::vector<NodeId>> UserLists() const;

  // Ids of kParameter nodes, in id order.
  std::vector<NodeId> ParameterIds() const;

  // Ids of output nodes: nodes flagged is_output plus any node with no users.
  std::vector<NodeId> OutputIds() const;

  // The root: the output node with the largest output tensor; tiling is
  // driven by its shape. Returns kInvalidNode for empty graphs.
  NodeId RootId() const;

  // Total number of dataflow edges.
  int num_edges() const noexcept;

  // Verifies structural invariants (operand ordering, operand counts,
  // non-empty). Returns an error description, or nullopt when valid.
  std::optional<std::string> Validate() const;

  // Stable structural fingerprint covering opcodes, shapes, windows and
  // edges; used to deduplicate kernels in the fusion dataset (§4).
  std::uint64_t Fingerprint() const;

  // Second structural hash over the same fields with an independent mixing
  // scheme. Callers that key by Fingerprint (e.g. core::PreparedCache) use
  // it to detect fingerprint collisions between distinct graphs — a joint
  // collision of both hashes is astronomically unlikely. Both hashes walk
  // the same fields in the same order.
  std::uint64_t StructuralSignature() const;

  // Fingerprint() and StructuralSignature() from one walk of the graph.
  struct Hashes {
    std::uint64_t fingerprint = 0;
    std::uint64_t signature = 0;
  };
  Hashes FingerprintAndSignature() const;

  // Multi-line textual dump for debugging, one node per line.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
};

// Kernel kinds mirror XLA's distinction between unfused single ops and fused
// computations; the analytical model scales its output by a per-kind
// coefficient in the fusion task (paper §5.2).
enum class KernelKind : std::uint8_t {
  kSingleOp = 0,  // one primitive op
  kLoopFusion,    // fused elementwise/reduction region
  kConvFusion,    // fused region containing a convolution or dot
  kDataFormatting,  // pure data-movement region (reshape/transpose/...)
};

std::string_view ToString(KernelKind k) noexcept;

struct Kernel {
  Graph graph;
  KernelKind kind = KernelKind::kSingleOp;

  // Classifies the kernel from its graph contents.
  static KernelKind Classify(const Graph& g);
};

}  // namespace tpuperf::ir
