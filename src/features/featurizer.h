// Feature extraction from kernel graphs (paper §3.1).
//
// A model input is a kernel represented as node features, whole-kernel
// features, and an adjacency matrix. Node features are the opcode (fed to
// an embedding) plus scalar features describing the node's behaviour:
// output shape, layout, striding/padding/filter size (window), and an
// output flag. Variable-length lists (shape dims, tile dims) are padded or
// truncated to a fixed width and augmented with their sum and product —
// "including the product is critical as it usually represents the volume
// of a tensor".
//
// Deviation noted in DESIGN.md: magnitude features (dims, byte counts, flop
// counts, products) are passed through log1p before min-max scaling; with
// the small networks trainable on CPU this stabilizes training without
// changing what information the model sees.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ir/analysis.h"
#include "ir/graph.h"
#include "ir/tile.h"

namespace tpuperf::feat {

// Widths of the raw feature blocks.
inline constexpr int kNodeScalarFeatures = 35;
// Tile features: raw dims (alignment effects are functions of exact
// extents), log1p dims (magnitude), then sum and product of all values.
inline constexpr int kTileFeatures = 2 * ir::kMaxEncodedRank + 2;
inline constexpr int kStaticPerfFeatures = 4;

// Raw (unscaled) featurization of one kernel, shared by all tile configs of
// that kernel.
struct KernelFeatures {
  // Per node: opcode id (embedding input) and scalar feature row.
  std::vector<int> opcode_ids;
  // Row-major [num_nodes x kNodeScalarFeatures].
  std::vector<std::vector<double>> node_scalars;
  // operand_lists[i] = operand node ids of node i (the adjacency input).
  std::vector<std::vector<int>> operand_lists;
  // The four optional static performance features (§3.1): flops, bytes
  // read, bytes written, special-functional-unit instruction count.
  std::vector<double> static_perf;

  int num_nodes() const noexcept {
    return static_cast<int>(opcode_ids.size());
  }
};

// Extracts raw features from a kernel graph.
KernelFeatures FeaturizeKernel(const ir::Graph& kernel);

// Process-wide count of FeaturizeKernel invocations (atomic). The on-disk
// dataset store uses it to prove warm-cache runs never re-walk a kernel
// graph; TileFeatures and scaling passes are deliberately not counted (they
// are per-sample arithmetic, unavoidable per batch).
long FeaturizeKernelInvocations() noexcept;
void ResetFeaturizeKernelInvocations() noexcept;

// Source of pre-computed raw kernel features, keyed by the kernel graph's
// Fingerprint() with its StructuralSignature() as the collision check (both
// hashes are opaque here; ir::Graph defines them). Implemented by the
// on-disk dataset store and handed to core::PreparedCache by whoever loaded
// it, so warm-cache runs skip FeaturizeKernel entirely. Lookup must be safe to
// call concurrently and return std::nullopt when the kernel is absent. The
// caller owns the returned features, so a source need not keep what it
// hands out: a streaming source decodes each lookup from disk and retains
// nothing.
class KernelFeatureSource {
 public:
  virtual ~KernelFeatureSource() = default;
  virtual std::optional<KernelFeatures> Lookup(
      std::uint64_t fingerprint, std::uint64_t structural_sig) const = 0;
};

// The raw features of `kernel`, whose hashes are `fingerprint` and
// `signature`: the copy `source` holds (no FeaturizeKernel call), else
// FeaturizeKernel(kernel). Both give the same features. `source` may be null.
KernelFeatures LookupOrFeaturize(const KernelFeatureSource* source,
                                 const ir::Graph& kernel,
                                 std::uint64_t fingerprint,
                                 std::uint64_t signature);

// Raw tile-size feature vector: dims padded/truncated to kMaxEncodedRank,
// then sum and product of all (untruncated) values.
std::vector<double> TileFeatures(const ir::TileConfig& tile);

}  // namespace tpuperf::feat
