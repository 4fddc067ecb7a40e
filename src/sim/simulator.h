// The TPU simulator: the "hardware" of this reproduction.
//
// The real paper measures kernels on TPU v2/v3 fleets. Here, ground-truth
// runtimes come from this simulator. Its first-order structure matches the
// analytical model of paper Appendix A (per-tile max(compute, transfer) with
// a double-buffered pipeline), and on top of it the simulator adds
// second-order behaviours the analytical model deliberately does NOT capture
// — exactly the gap a learned model is supposed to close:
//
//   * a size-dependent DMA efficiency curve plus fixed per-transfer latency
//     ("larger transfers are more efficient", App. A #3);
//   * tile-alignment utilization loss on the 128x128 MXU and 8x128 VPU
//     (padding waste when tile extents are not multiples of the array);
//   * scratchpad-pressure spill penalties near capacity (register/ vmem
//     pressure, App. A limitation iii);
//   * minor-dimension bank conflicts;
//   * weight-residency amortization (small weights stay resident in
//     scratchpad instead of being re-streamed every iteration);
//   * serialized special-functional-unit time for transcendentals;
//   * per-(kernel, tile) deterministic scheduling jitter (issue stalls,
//     App. A limitation iv).
//
// All of these are pure functions of kernel structure and tile extents, so
// they are learnable from the paper's features — except the jitter, which
// plays the role of irreducible measurement noise.
#pragma once

#include <cstdint>

#include "ir/graph.h"
#include "ir/tile.h"
#include "sim/target.h"

namespace tpuperf::sim {

// Detailed breakdown of one simulated kernel execution, for tests and
// diagnostics; runtime_sec is the quantity "measured" on the hardware.
struct SimResult {
  double runtime_sec = 0;
  // Components (before jitter/stall multipliers).
  double compute_sec_per_tile = 0;
  double transfer_sec_per_tile = 0;
  double mxu_sec_per_tile = 0;
  double vector_sec_per_tile = 0;
  double sfu_sec_per_tile = 0;
  std::int64_t tile_iterations = 1;
  double bytes_in_per_tile = 0;
  double bytes_out_per_tile = 0;
  double scratchpad_pressure = 0;  // working set / capacity
  double stall_factor = 1.0;       // combined second-order multiplier
  bool compute_bound = false;
};

class TpuSimulator {
 public:
  explicit TpuSimulator(TpuTarget target) : target_(std::move(target)) {}

  const TpuTarget& target() const noexcept { return target_; }

  // Simulates one execution of `kernel` under `tile`. Deterministic.
  SimResult Simulate(const ir::Graph& kernel, const ir::TileConfig& tile) const;

  // Mimics the paper's measurement protocol (§4): runs the kernel `runs`
  // times with run-to-run noise and returns the minimum runtime in seconds.
  double Measure(const ir::Graph& kernel, const ir::TileConfig& tile,
                 int runs = 3) const;

  // The tile the compiler would use when none is specified: the best tile
  // according to an exhaustive sweep of a small candidate set using the
  // simulator itself would be circular, so this returns the largest valid
  // tile (whole-output if it fits), matching XLA's pre-selection default.
  ir::TileConfig DefaultTile(const ir::Graph& kernel) const;

  // Valid tiles for the kernel on this target (delegates to the enumerator
  // with this target's scratchpad size).
  std::vector<ir::TileConfig> EnumerateTiles(const ir::Graph& kernel,
                                             int max_configs = 1024) const;

 private:
  // Simulate that also stores the kernel's Fingerprint() in `*fingerprint`
  // (left untouched for a kernel without a root), so that Measure hashes
  // the graph once.
  SimResult SimulateAndFingerprint(const ir::Graph& kernel,
                                   const ir::TileConfig& tile,
                                   std::uint64_t* fingerprint) const;

  TpuTarget target_;
};

}  // namespace tpuperf::sim
