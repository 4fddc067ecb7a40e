#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ir/analysis.h"
#include "sim/hash.h"

namespace tpuperf::sim {
namespace {

using ir::Graph;
using ir::Node;
using ir::NodeId;
using ir::OpCode;
using ir::TileConfig;

std::uint64_t TileHash(const TileConfig& tile) {
  std::uint64_t h = 0x7125f1e3a0c4b5d6ull;
  for (const auto d : tile.dims) {
    h = HashCombine(h, static_cast<std::uint64_t>(d));
  }
  return h;
}

// Fraction of a hardware vector/matrix lane group actually used by an
// extent: extent / (extent rounded up to the lane multiple).
double AlignmentEfficiency(std::int64_t extent, std::int64_t lanes) {
  if (extent <= 0) return 1.0;
  const std::int64_t rounded = ((extent + lanes - 1) / lanes) * lanes;
  return static_cast<double>(extent) / static_cast<double>(rounded);
}

// True for parameters that feed the "weight" side of a dot/convolution;
// those tensors do not tile along the kernel output and are either kept
// resident in scratchpad or re-streamed every iteration.
std::vector<bool> WeightLikeParams(const Graph& g) {
  std::vector<bool> weight(static_cast<size_t>(g.num_nodes()), false);
  for (const Node& n : g.nodes()) {
    if (n.op == OpCode::kDot || n.op == OpCode::kConvolution) {
      if (n.operands.size() >= 2) {
        const NodeId rhs = n.operands[1];
        if (g.node(rhs).op == OpCode::kParameter ||
            g.node(rhs).op == OpCode::kConstant) {
          weight[static_cast<size_t>(rhs)] = true;
        }
      }
    }
  }
  return weight;
}

// Input halo overhead for windowed ops: an output tile of extent t along a
// windowed dimension needs t + size - 1 input elements. Returns the largest
// such blow-up across windowed nodes, capped to keep degenerate tiles sane.
double HaloFactor(const Graph& g, const TileConfig& tile) {
  double factor = 1.0;
  for (const Node& n : g.nodes()) {
    if (n.window.empty()) continue;
    double f = 1.0;
    // Window dims map onto the spatial dims of an NHWC output: dims 1..k.
    for (size_t j = 0; j < n.window.dims.size(); ++j) {
      const size_t tile_dim = j + 1 < tile.dims.size() ? j + 1 : j;
      if (tile_dim >= tile.dims.size()) break;
      const double t = static_cast<double>(tile.dims[tile_dim]);
      const double size = static_cast<double>(n.window.dims[j].size);
      f *= (t + size - 1.0) / t;
    }
    factor = std::max(factor, f);
  }
  return std::min(factor, 4.0);
}

}  // namespace

SimResult TpuSimulator::Simulate(const Graph& kernel,
                                 const TileConfig& tile) const {
  std::uint64_t fingerprint = 0;
  return SimulateAndFingerprint(kernel, tile, &fingerprint);
}

SimResult TpuSimulator::SimulateAndFingerprint(
    const Graph& kernel, const TileConfig& tile,
    std::uint64_t* fingerprint) const {
  SimResult r;
  const NodeId root = kernel.RootId();
  if (root == ir::kInvalidNode) return r;
  const ir::Shape& root_shape = kernel.node(root).shape;
  const std::int64_t iters = std::max<std::int64_t>(
      1, ir::TileIterations(tile, root_shape));
  r.tile_iterations = iters;
  const double inv_iters = 1.0 / static_cast<double>(iters);

  const auto summary = ir::analysis::AnalyzeKernel(kernel);

  // ---- Compute time per tile -------------------------------------------
  // MXU: systolic-array utilization suffers when the tile's minor extents
  // are not multiples of the array geometry (padding waste).
  double mxu_util = 1.0;
  if (summary.mxu_flops > 0 && !tile.dims.empty()) {
    const std::int64_t minor = tile.dims.back();
    const std::int64_t second =
        tile.dims.size() >= 2 ? tile.dims[tile.dims.size() - 2] : 1;
    mxu_util = AlignmentEfficiency(minor, target_.mxu_dim) *
               AlignmentEfficiency(second, 8);
    mxu_util = std::max(mxu_util, 0.02);
  }
  double vpu_util = 1.0;
  if (!tile.dims.empty()) {
    const std::int64_t minor = tile.dims.back();
    vpu_util = 0.35 + 0.65 * AlignmentEfficiency(minor, target_.vpu_lanes);
  }

  r.mxu_sec_per_tile =
      summary.mxu_flops * inv_iters / (target_.PeakMatmulFlops() * mxu_util);
  r.vector_sec_per_tile =
      summary.vector_ops * inv_iters / (target_.PeakVectorOps() * vpu_util);
  r.sfu_sec_per_tile =
      summary.transcendental_ops * inv_iters / target_.PeakSfuOps();

  int active_ops = 0;
  for (const Node& n : kernel.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant) ++active_ops;
  }
  const double issue_sec = target_.issue_overhead_sec * active_ops;

  // MXU runs in parallel with the vector pipeline; the SFU serializes behind
  // the VPU. VLIW issue overhead is paid regardless.
  r.compute_sec_per_tile =
      std::max(r.mxu_sec_per_tile, r.vector_sec_per_tile + r.sfu_sec_per_tile) +
      issue_sec;

  // ---- Transfer time per tile ------------------------------------------
  const auto weight_like = WeightLikeParams(kernel);
  const double halo = HaloFactor(kernel, tile);
  double bytes_in = 0;
  int streams = 0;
  for (const Node& n : kernel.nodes()) {
    if (n.op != OpCode::kParameter && n.op != OpCode::kConstant) continue;
    const double bytes = static_cast<double>(n.shape.byte_size());
    if (weight_like[static_cast<size_t>(n.id)]) {
      // Small weights stay resident in scratchpad across iterations; large
      // ones are re-streamed every tile. The analytical baseline always
      // assumes streaming — one of its systematic errors.
      const bool resident =
          bytes <= 0.25 * static_cast<double>(target_.scratchpad_bytes);
      bytes_in += resident ? bytes * inv_iters : bytes;
      streams += resident ? 0 : 1;
    } else {
      bytes_in += bytes * inv_iters * halo;
      ++streams;
    }
  }
  double bytes_out = 0;
  for (const NodeId id : kernel.OutputIds()) {
    bytes_out += static_cast<double>(kernel.node(id).shape.byte_size()) *
                 inv_iters;
  }
  r.bytes_in_per_tile = bytes_in;
  r.bytes_out_per_tile = bytes_out;

  const double bytes_total = bytes_in + bytes_out;
  // Achieved bandwidth ramps with transfer size: eff = b / (b + ramp).
  const double efficiency =
      bytes_total / (bytes_total + target_.dma_ramp_bytes);
  const double latency =
      target_.dma_latency_sec * (1.0 + 0.25 * std::max(0, streams - 1));
  r.transfer_sec_per_tile =
      latency +
      bytes_total / (target_.hbm_bytes_per_sec * std::max(efficiency, 1e-3));

  // ---- Second-order multipliers ----------------------------------------
  const double ws_tile =
      2.0 * bytes_total +
      static_cast<double>(summary.peak_working_set_bytes) * inv_iters;
  r.scratchpad_pressure =
      ws_tile / static_cast<double>(target_.scratchpad_bytes);
  double spill = 0.0;
  if (r.scratchpad_pressure > 0.7) {
    spill = 0.8 * std::min(1.0, (r.scratchpad_pressure - 0.7) / 0.3);
  }

  double bank = 0.0;
  if (!tile.dims.empty()) {
    const std::int64_t minor = tile.dims.back();
    const std::int64_t rem = minor % target_.vpu_sublanes;
    if (minor > 1 && rem != 0) {
      bank = 0.04 + 0.06 * static_cast<double>(rem) /
                        static_cast<double>(target_.vpu_sublanes);
    }
  }

  // Hashed here, between the terms above and below: where the call sits
  // decides which multiply-adds the compiler contracts, and so the
  // runtimes' last bits.
  const std::uint64_t fp = kernel.Fingerprint();
  *fingerprint = fp;
  const std::uint64_t th = TileHash(tile);
  // Scheduling jitter: issue stalls the compiler backend produces for this
  // exact (kernel, tile) pair. Deterministic but feature-opaque.
  const double jitter = 0.05 * HashUnit(HashCombine(fp, th, 0x51ULL));
  // Kernel-level codegen quality wobble: constant across tiles of the same
  // kernel (cannot perturb tile rankings) but shifts absolute runtimes.
  const double kernel_wobble = 0.06 * HashSigned(HashCombine(fp, 0x99ULL));

  r.stall_factor =
      (1.0 + spill) * (1.0 + bank) * (1.0 + jitter) * (1.0 + kernel_wobble);

  // ---- Pipeline ----------------------------------------------------------
  // Double-buffered: compute of tile i overlaps copy-in of i+1 / copy-out of
  // i-1, so steady state is max(compute, transfer); fill/drain add one
  // non-overlapped leg.
  const double steady =
      std::max(r.compute_sec_per_tile, r.transfer_sec_per_tile);
  const double fill =
      std::min(r.compute_sec_per_tile, r.transfer_sec_per_tile);
  r.compute_bound = r.compute_sec_per_tile >= r.transfer_sec_per_tile;
  r.runtime_sec = target_.kernel_launch_sec +
                  (static_cast<double>(iters) * steady + fill) * r.stall_factor;
  return r;
}

double TpuSimulator::Measure(const Graph& kernel, const TileConfig& tile,
                             int runs) const {
  // A kernel without a root simulates to 0 s, whatever the fingerprint.
  std::uint64_t fp = 0;
  const SimResult base = SimulateAndFingerprint(kernel, tile, &fp);
  const std::uint64_t th = TileHash(tile);
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < std::max(1, runs); ++run) {
    const double noise =
        0.03 * HashUnit(HashCombine(fp, th, static_cast<std::uint64_t>(run),
                                    0xD1CEull));
    best = std::min(best, base.runtime_sec * (1.0 + noise));
  }
  return best;
}

ir::TileConfig TpuSimulator::DefaultTile(const Graph& kernel) const {
  const NodeId root = kernel.RootId();
  if (root == ir::kInvalidNode) return {};
  const ir::Shape& shape = kernel.node(root).shape;
  const double per_elem = ir::analysis::ScratchpadBytesPerOutputElement(kernel);
  TileConfig tile;
  tile.dims = shape.dims();
  // Shrink the largest extent until the footprint fits the scratchpad.
  while (static_cast<double>(tile.volume()) * per_elem >
         static_cast<double>(target_.scratchpad_bytes)) {
    auto it = std::max_element(tile.dims.begin(), tile.dims.end());
    if (*it <= 1) break;
    *it = (*it + 1) / 2;
  }
  return tile;
}

std::vector<ir::TileConfig> TpuSimulator::EnumerateTiles(
    const Graph& kernel, int max_configs) const {
  const NodeId root = kernel.RootId();
  if (root == ir::kInvalidNode) return {};
  ir::TileEnumeratorOptions options;
  options.scratchpad_bytes = target_.scratchpad_bytes;
  options.max_configs = max_configs;
  return ir::EnumerateTiles(
      kernel.node(root).shape,
      ir::analysis::ScratchpadBytesPerOutputElement(kernel), options);
}

}  // namespace tpuperf::sim
