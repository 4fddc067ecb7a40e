#include "ir/builder.h"

#include <stdexcept>
#include <utility>

namespace tpuperf::ir {
namespace {

std::int64_t ConvOutDim(std::int64_t in, std::int64_t window,
                        std::int64_t stride, Padding padding) {
  if (padding == Padding::kSame) return (in + stride - 1) / stride;
  return (in - window) / stride + 1;
}

}  // namespace

NodeId GraphBuilder::Parameter(Shape shape) {
  Node n;
  n.op = OpCode::kParameter;
  n.shape = std::move(shape);
  return Add(std::move(n));
}

NodeId GraphBuilder::Constant(Shape shape) {
  Node n;
  n.op = OpCode::kConstant;
  n.shape = std::move(shape);
  return Add(std::move(n));
}

NodeId GraphBuilder::Unary(OpCode op, NodeId x) {
  if (!IsElementwiseUnary(op)) {
    throw std::invalid_argument("Unary() requires an elementwise unary op");
  }
  Node n;
  n.op = op;
  n.shape = shape_of(x);
  n.operands = {x};
  return Add(std::move(n));
}

NodeId GraphBuilder::Binary(OpCode op, NodeId a, NodeId b) {
  if (!IsElementwiseBinary(op)) {
    throw std::invalid_argument("Binary() requires an elementwise binary op");
  }
  if (shape_of(a).dims() != shape_of(b).dims()) {
    throw std::invalid_argument("Binary() operand shape mismatch: " +
                                shape_of(a).ToString() + " vs " +
                                shape_of(b).ToString());
  }
  Node n;
  n.op = op;
  n.shape = shape_of(a);
  if (op == OpCode::kCompare) {
    n.shape = Shape(shape_of(a).dims(), ElementType::kPred);
  }
  n.operands = {a, b};
  return Add(std::move(n));
}

NodeId GraphBuilder::Broadcast(NodeId x, Shape to) {
  Node n;
  n.op = OpCode::kBroadcast;
  n.shape = std::move(to);
  n.operands = {x};
  return Add(std::move(n));
}

NodeId GraphBuilder::AddBias(NodeId x, NodeId bias) {
  const Shape& xs = shape_of(x);
  if (shape_of(bias).rank() != 1 ||
      shape_of(bias).dim(0) != xs.dim(xs.rank() - 1)) {
    throw std::invalid_argument("AddBias() bias must match last dim of x");
  }
  const NodeId broadcast = Broadcast(bias, xs);
  return Binary(OpCode::kAdd, x, broadcast);
}

NodeId GraphBuilder::Reshape(NodeId x, Shape to) {
  if (to.num_elements() != shape_of(x).num_elements()) {
    throw std::invalid_argument("Reshape() must preserve element count");
  }
  Node n;
  n.op = OpCode::kReshape;
  n.shape = std::move(to);
  n.operands = {x};
  return Add(std::move(n));
}

NodeId GraphBuilder::Transpose(NodeId x, std::vector<int> permutation) {
  const Shape& xs = shape_of(x);
  if (static_cast<int>(permutation.size()) != xs.rank()) {
    throw std::invalid_argument("Transpose() permutation rank mismatch");
  }
  std::vector<std::int64_t> dims(permutation.size());
  for (size_t i = 0; i < permutation.size(); ++i) {
    dims[i] = xs.dim(permutation[i]);
  }
  Node n;
  n.op = OpCode::kTranspose;
  n.shape = Shape(std::move(dims), xs.element_type());
  n.operands = {x};
  return Add(std::move(n));
}

NodeId GraphBuilder::Concatenate(std::vector<NodeId> xs, int dim) {
  if (xs.empty()) throw std::invalid_argument("Concatenate() needs operands");
  const Shape& first = shape_of(xs.front());
  std::vector<std::int64_t> dims = first.dims();
  for (size_t i = 1; i < xs.size(); ++i) {
    dims[static_cast<size_t>(dim)] += shape_of(xs[i]).dim(dim);
  }
  Node n;
  n.op = OpCode::kConcatenate;
  n.shape = Shape(std::move(dims), first.element_type());
  n.operands = std::move(xs);
  return Add(std::move(n));
}

NodeId GraphBuilder::Dot(NodeId lhs, NodeId rhs) {
  const Shape& ls = shape_of(lhs);
  const Shape& rs = shape_of(rhs);
  if (ls.rank() < 1 || rs.rank() != 2) {
    throw std::invalid_argument("Dot() expects lhs[..., k] x rhs[k, n]");
  }
  const std::int64_t k = ls.dim(ls.rank() - 1);
  if (rs.dim(0) != k) {
    throw std::invalid_argument("Dot() contraction mismatch: " +
                                ls.ToString() + " x " + rs.ToString());
  }
  std::vector<std::int64_t> dims(ls.dims().begin(), ls.dims().end() - 1);
  dims.push_back(rs.dim(1));
  Node n;
  n.op = OpCode::kDot;
  n.shape = Shape(std::move(dims), ls.element_type());
  n.operands = {lhs, rhs};
  n.reduce_dims = {ls.rank() - 1};
  return Add(std::move(n));
}

NodeId GraphBuilder::Conv2d(NodeId input, NodeId filter, std::int64_t stride,
                            Padding padding) {
  const Shape& in = shape_of(input);    // NHWC
  const Shape& flt = shape_of(filter);  // HWIO
  if (in.rank() != 4 || flt.rank() != 4) {
    throw std::invalid_argument("Conv2d() expects NHWC input, HWIO filter");
  }
  if (in.dim(3) != flt.dim(2)) {
    throw std::invalid_argument("Conv2d() channel mismatch");
  }
  const std::int64_t h = ConvOutDim(in.dim(1), flt.dim(0), stride, padding);
  const std::int64_t w = ConvOutDim(in.dim(2), flt.dim(1), stride, padding);
  Node n;
  n.op = OpCode::kConvolution;
  n.shape = Shape({in.dim(0), h, w, flt.dim(3)}, in.element_type());
  n.operands = {input, filter};
  n.feature_in = flt.dim(2);
  n.feature_out = flt.dim(3);
  const std::int64_t pad_h =
      padding == Padding::kSame ? (flt.dim(0) - 1) / 2 : 0;
  const std::int64_t pad_w =
      padding == Padding::kSame ? (flt.dim(1) - 1) / 2 : 0;
  n.window.dims = {
      WindowDim{flt.dim(0), stride, pad_h, flt.dim(0) - 1 - pad_h, 1},
      WindowDim{flt.dim(1), stride, pad_w, flt.dim(1) - 1 - pad_w, 1}};
  return Add(std::move(n));
}

NodeId GraphBuilder::Pool2d(NodeId input, std::int64_t window,
                            std::int64_t stride) {
  const Shape& in = shape_of(input);  // NHWC
  if (in.rank() != 4) throw std::invalid_argument("Pool2d() expects NHWC");
  const std::int64_t h = ConvOutDim(in.dim(1), window, stride, Padding::kValid);
  const std::int64_t w = ConvOutDim(in.dim(2), window, stride, Padding::kValid);
  Node n;
  n.op = OpCode::kReduceWindow;
  n.shape = Shape({in.dim(0), h, w, in.dim(3)}, in.element_type());
  n.operands = {input};
  n.window.dims = {WindowDim{window, stride, 0, 0, 1},
                   WindowDim{window, stride, 0, 0, 1}};
  return Add(std::move(n));
}

NodeId GraphBuilder::Reduce(NodeId x, std::vector<int> dims) {
  const Shape& xs = shape_of(x);
  std::vector<std::int64_t> out_dims;
  for (int i = 0; i < xs.rank(); ++i) {
    bool reduced = false;
    for (const int d : dims) {
      if (d == i) reduced = true;
    }
    if (!reduced) out_dims.push_back(xs.dim(i));
  }
  if (out_dims.empty()) out_dims.push_back(1);
  Node n;
  n.op = OpCode::kReduce;
  n.shape = Shape(std::move(out_dims), xs.element_type());
  n.operands = {x};
  n.reduce_dims = std::move(dims);
  return Add(std::move(n));
}

NodeId GraphBuilder::Softmax(NodeId x) {
  Node n;
  n.op = OpCode::kSoftmax;
  n.shape = shape_of(x);
  n.operands = {x};
  n.reduce_dims = {shape_of(x).rank() - 1};
  return Add(std::move(n));
}

NodeId GraphBuilder::BatchNorm(NodeId x, NodeId scale, NodeId offset) {
  Node n;
  n.op = OpCode::kBatchNormInference;
  n.shape = shape_of(x);
  n.operands = {x, scale, offset};
  return Add(std::move(n));
}

NodeId GraphBuilder::Relu(NodeId x) {
  const NodeId zero = Constant(shape_of(x));
  return Binary(OpCode::kMaximum, x, zero);
}

NodeId GraphBuilder::Dense(NodeId x, std::int64_t out_features, bool relu) {
  const Shape& xs = shape_of(x);
  const std::int64_t in_features = xs.dim(xs.rank() - 1);
  const NodeId w =
      Parameter(Shape({in_features, out_features}, xs.element_type()));
  const NodeId b = Parameter(Shape({out_features}, xs.element_type()));
  NodeId y = Dot(x, w);
  y = AddBias(y, b);
  if (relu) y = Relu(y);
  return y;
}

Graph GraphBuilder::Build() && { return std::move(graph_); }

}  // namespace tpuperf::ir
