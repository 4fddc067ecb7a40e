#include "ir/graph.h"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace tpuperf::ir {
namespace {

// 64-bit FNV-1a, the workhorse for structural fingerprints.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// kFnvPrimePow[k] = kFnvPrime^k mod 2^64.
constexpr auto kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{1};
  for (size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

// Byte-serial FNV-1a over v's 8 little-endian bytes. A zero byte's xor is a
// no-op, so the high zero bytes fold into one multiply by a prime power:
// the same value, with fewer dependent multiplies.
void HashMix(std::uint64_t& h, std::uint64_t v) noexcept {
  const int bytes = (std::bit_width(v) + 7) / 8;
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  h *= kFnvPrimePow[8 - bytes];
}

// Independent mixer (splitmix64 finalizer) for StructuralSignature, so the
// two hashes don't collide jointly.
void SigMix(std::uint64_t& h, std::uint64_t v) noexcept {
  std::uint64_t z = h + v + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  h = z ^ (z >> 31);
}

}  // namespace

NodeId Graph::AddNode(Node node) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (const NodeId operand : node.operands) {
    if (operand < 0 || operand >= id) {
      throw std::invalid_argument(
          "operand ids must reference earlier nodes (got " +
          std::to_string(operand) + " for node " + std::to_string(id) + ")");
    }
  }
  node.id = id;
  nodes_.push_back(std::move(node));
  return id;
}

std::vector<std::vector<NodeId>> Graph::UserLists() const {
  std::vector<std::vector<NodeId>> users(nodes_.size());
  for (const Node& n : nodes_) {
    for (const NodeId operand : n.operands) {
      users[static_cast<size_t>(operand)].push_back(n.id);
    }
  }
  return users;
}

std::vector<NodeId> Graph::ParameterIds() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.op == OpCode::kParameter) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Graph::OutputIds() const {
  std::vector<bool> has_user(nodes_.size(), false);
  for (const Node& n : nodes_) {
    for (const NodeId operand : n.operands) {
      has_user[static_cast<size_t>(operand)] = true;
    }
  }
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.is_output || !has_user[static_cast<size_t>(n.id)]) {
      out.push_back(n.id);
    }
  }
  return out;
}

NodeId Graph::RootId() const {
  const auto outputs = OutputIds();
  if (outputs.empty()) return kInvalidNode;
  NodeId best = outputs.front();
  for (const NodeId id : outputs) {
    if (node(id).shape.num_elements() > node(best).shape.num_elements()) {
      best = id;
    }
  }
  return best;
}

int Graph::num_edges() const noexcept {
  int edges = 0;
  for (const Node& n : nodes_) edges += static_cast<int>(n.operands.size());
  return edges;
}

std::optional<std::string> Graph::Validate() const {
  if (nodes_.empty()) return "graph has no nodes";
  for (const Node& n : nodes_) {
    for (const NodeId operand : n.operands) {
      if (operand < 0 || operand >= n.id) {
        return "node " + std::to_string(n.id) + " has invalid operand " +
               std::to_string(operand);
      }
    }
    const int expected = ExpectedOperandCount(n.op);
    if (expected >= 0 && expected != static_cast<int>(n.operands.size())) {
      return std::string(ir::ToString(n.op)) + " node " + std::to_string(n.id) +
             " expects " + std::to_string(expected) + " operands, has " +
             std::to_string(n.operands.size());
    }
    if (n.shape.rank() == 0 && n.op != OpCode::kConstant &&
        n.op != OpCode::kReduce) {
      return "node " + std::to_string(n.id) + " has rank-0 shape";
    }
  }
  if (OutputIds().empty()) return "graph has no outputs";
  return std::nullopt;
}

// Calls mix(v) for every structural field of every node, in the order
// that both hashes walk them.
template <typename Mix>
void WalkStructure(const std::vector<Node>& nodes, Mix&& mix) {
  for (const Node& n : nodes) {
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
}

std::uint64_t Graph::Fingerprint() const {
  std::uint64_t h = kFnvOffset;
  WalkStructure(nodes_, [&h](std::uint64_t v) { HashMix(h, v); });
  return h;
}

std::uint64_t Graph::StructuralSignature() const {
  std::uint64_t h = static_cast<std::uint64_t>(nodes_.size());
  WalkStructure(nodes_, [&h](std::uint64_t v) { SigMix(h, v); });
  return h;
}

Graph::Hashes Graph::FingerprintAndSignature() const {
  Hashes out{kFnvOffset, static_cast<std::uint64_t>(nodes_.size())};
  WalkStructure(nodes_, [&out](std::uint64_t v) {
    HashMix(out.fingerprint, v);
    SigMix(out.signature, v);
  });
  return out;
}

std::string Graph::ToString() const {
  std::ostringstream os;
  for (const Node& n : nodes_) {
    os << '%' << n.id << " = " << ir::ToString(n.op) << ' '
       << n.shape.ToString() << '(';
    for (size_t i = 0; i < n.operands.size(); ++i) {
      if (i > 0) os << ", ";
      os << '%' << n.operands[i];
    }
    os << ')';
    if (n.is_output) os << " [output]";
    os << '\n';
  }
  return os.str();
}

std::string_view ToString(KernelKind k) noexcept {
  switch (k) {
    case KernelKind::kSingleOp:
      return "single-op";
    case KernelKind::kLoopFusion:
      return "loop-fusion";
    case KernelKind::kConvFusion:
      return "conv-fusion";
    case KernelKind::kDataFormatting:
      return "data-formatting";
  }
  return "invalid";
}

KernelKind Kernel::Classify(const Graph& g) {
  int non_param = 0;
  bool has_mxu = false;
  bool all_data_movement = true;
  for (const Node& n : g.nodes()) {
    if (n.op == OpCode::kParameter) continue;
    ++non_param;
    if (UsesMatrixUnit(n.op)) has_mxu = true;
    if (!IsDataMovement(n.op)) all_data_movement = false;
  }
  if (has_mxu) {
    return non_param > 1 ? KernelKind::kConvFusion : KernelKind::kConvFusion;
  }
  if (all_data_movement && non_param > 0) return KernelKind::kDataFormatting;
  if (non_param <= 1) return KernelKind::kSingleOp;
  return KernelKind::kLoopFusion;
}

}  // namespace tpuperf::ir
