#include "features/featurizer.h"

#include <atomic>
#include <cmath>
#include <utility>

namespace tpuperf::feat {
namespace {

std::atomic<long> g_featurize_invocations{0};

double Log1p(double v) { return std::log1p(std::max(0.0, v)); }

// Node scalar feature layout. Kept in one place so tests can assert on it.
//  [0]      rank
//  [1..6]   output dims, padded/truncated to 6 (log1p)
//  [7]      sum of dims (log1p)
//  [8]      product of dims = tensor volume (log1p)
//  [9..14]  layout minor-to-major permutation, padded to 6
//  [15]     element byte width
//  [16..19] window sizes, padded to 4
//  [20..23] window strides, padded to 4
//  [24..27] window low padding, padded to 4
//  [28]     window tap count (log1p)
//  [29]     operand count
//  [30]     is_output flag
//  [31]     output byte size (log1p)
//  [32]     convolution feature_in (log1p)
//  [33]     convolution feature_out (log1p)
//  [34]     number of reduced dimensions
std::vector<double> NodeScalars(const ir::Node& node) {
  std::vector<double> f(kNodeScalarFeatures, 0.0);
  const ir::Shape& s = node.shape;
  f[0] = s.rank();
  double sum = 0, prod = 1;
  for (int i = 0; i < s.rank(); ++i) {
    const double d = static_cast<double>(s.dim(i));
    if (i < ir::kMaxEncodedRank) f[static_cast<size_t>(1 + i)] = Log1p(d);
    sum += d;
    prod *= d;
  }
  f[7] = Log1p(sum);
  f[8] = Log1p(prod);
  const auto& layout = s.minor_to_major();
  for (size_t i = 0; i < layout.size() && i < ir::kMaxEncodedRank; ++i) {
    f[9 + i] = layout[i];
  }
  f[15] = ir::ByteWidth(s.element_type());
  for (size_t i = 0; i < node.window.dims.size() && i < 4; ++i) {
    const auto& w = node.window.dims[i];
    f[16 + i] = static_cast<double>(w.size);
    f[20 + i] = static_cast<double>(w.stride);
    f[24 + i] = static_cast<double>(w.padding_low);
  }
  f[28] = Log1p(static_cast<double>(node.window.TapCount()));
  f[29] = static_cast<double>(node.operands.size());
  f[30] = node.is_output ? 1.0 : 0.0;
  f[31] = Log1p(static_cast<double>(s.byte_size()));
  f[32] = Log1p(static_cast<double>(node.feature_in));
  f[33] = Log1p(static_cast<double>(node.feature_out));
  f[34] = static_cast<double>(node.reduce_dims.size());
  return f;
}

}  // namespace

long FeaturizeKernelInvocations() noexcept {
  return g_featurize_invocations.load(std::memory_order_relaxed);
}

void ResetFeaturizeKernelInvocations() noexcept {
  g_featurize_invocations.store(0, std::memory_order_relaxed);
}

KernelFeatures FeaturizeKernel(const ir::Graph& kernel) {
  g_featurize_invocations.fetch_add(1, std::memory_order_relaxed);
  KernelFeatures kf;
  const int n = kernel.num_nodes();
  kf.opcode_ids.reserve(static_cast<size_t>(n));
  kf.node_scalars.reserve(static_cast<size_t>(n));
  kf.operand_lists.reserve(static_cast<size_t>(n));

  // Mark output nodes the way the featurizer sees them (§3.1: outputs are
  // "expressed via an extra feature associated with the output nodes").
  std::vector<bool> is_output(static_cast<size_t>(n), false);
  for (const ir::NodeId id : kernel.OutputIds()) {
    is_output[static_cast<size_t>(id)] = true;
  }

  for (const ir::Node& node : kernel.nodes()) {
    kf.opcode_ids.push_back(static_cast<int>(node.op));
    ir::Node annotated = node;
    annotated.is_output = is_output[static_cast<size_t>(node.id)];
    kf.node_scalars.push_back(NodeScalars(annotated));
    kf.operand_lists.emplace_back(node.operands.begin(), node.operands.end());
  }

  const auto cost = ir::analysis::AnalyzeKernel(kernel);
  kf.static_perf = {Log1p(cost.flops),
                    Log1p(static_cast<double>(cost.bytes_read)),
                    Log1p(static_cast<double>(cost.bytes_written)),
                    Log1p(cost.transcendental_ops)};
  return kf;
}

KernelFeatures LookupOrFeaturize(const KernelFeatureSource* source,
                                 const ir::Graph& kernel,
                                 std::uint64_t fingerprint,
                                 std::uint64_t signature) {
  if (source != nullptr) {
    if (std::optional<KernelFeatures> cached =
            source->Lookup(fingerprint, signature)) {
      return std::move(*cached);
    }
  }
  return FeaturizeKernel(kernel);
}

std::vector<double> TileFeatures(const ir::TileConfig& tile) {
  std::vector<double> f(kTileFeatures, 0.0);
  double sum = 0, prod = 1;
  for (size_t i = 0; i < tile.dims.size(); ++i) {
    const double d = static_cast<double>(tile.dims[i]);
    if (i < ir::kMaxEncodedRank) {
      f[i] = d;                           // raw extent (alignment-sensitive)
      f[ir::kMaxEncodedRank + i] = Log1p(d);  // magnitude
    }
    sum += d;
    prod *= d;
  }
  f[2 * ir::kMaxEncodedRank] = Log1p(sum);
  f[2 * ir::kMaxEncodedRank + 1] = Log1p(prod);
  return f;
}

}  // namespace tpuperf::feat
