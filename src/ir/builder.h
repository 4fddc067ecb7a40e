// Convenience builder for constructing computation graphs with shape
// inference, used by the synthetic program generator and by tests/examples.
#pragma once

#include <initializer_list>
#include <vector>

#include "ir/graph.h"
#include "ir/node.h"
#include "ir/shape.h"

namespace tpuperf::ir {

enum class Padding { kSame, kValid };

class GraphBuilder {
 public:
  GraphBuilder() = default;

  NodeId Parameter(Shape shape);
  NodeId Constant(Shape shape);

  // Elementwise unary; output shape equals the operand shape.
  NodeId Unary(OpCode op, NodeId x);
  // Elementwise binary; operand shapes must match exactly.
  NodeId Binary(OpCode op, NodeId a, NodeId b);

  NodeId Broadcast(NodeId x, Shape to);
  // Broadcasts a rank-1 tensor along the last dimension of `like`'s shape
  // and adds it (a bias add), the most common broadcast in real programs.
  NodeId AddBias(NodeId x, NodeId bias);
  NodeId Reshape(NodeId x, Shape to);
  NodeId Transpose(NodeId x, std::vector<int> permutation);
  NodeId Concatenate(std::vector<NodeId> xs, int dim);

  // dot(lhs[..., m, k], rhs[k, n]) -> [..., m, n].
  NodeId Dot(NodeId lhs, NodeId rhs);
  // 2-D convolution, NHWC input and HWIO filter.
  NodeId Conv2d(NodeId input, NodeId filter, std::int64_t stride,
                Padding padding);
  // Max/avg pooling via reduce-window over the two spatial dims of NHWC.
  NodeId Pool2d(NodeId input, std::int64_t window, std::int64_t stride);

  // Reduce over `dims` (removed from the shape).
  NodeId Reduce(NodeId x, std::vector<int> dims);
  // Softmax over the last dimension.
  NodeId Softmax(NodeId x);
  NodeId BatchNorm(NodeId x, NodeId scale, NodeId offset);

  // Common fused idioms.
  NodeId Relu(NodeId x);      // maximum(x, 0)
  NodeId Tanh(NodeId x) { return Unary(OpCode::kTanh, x); }
  NodeId Sigmoid(NodeId x) { return Unary(OpCode::kLogistic, x); }

  // Fully connected layer: relu(x @ W + b) with fresh parameters.
  NodeId Dense(NodeId x, std::int64_t out_features, bool relu = true);

  // Returns by value: node storage may reallocate as nodes are added, so a
  // reference would dangle across subsequent builder calls.
  Shape shape_of(NodeId id) const { return graph_.node(id).shape; }
  void MarkOutput(NodeId id) { graph_.mutable_node(id).is_output = true; }

  // Finalizes and returns the graph. Nodes without users become outputs.
  Graph Build() &&;
  const Graph& graph() const noexcept { return graph_; }

 private:
  NodeId Add(Node n) { return graph_.AddNode(std::move(n)); }
  Graph graph_;
};

}  // namespace tpuperf::ir
