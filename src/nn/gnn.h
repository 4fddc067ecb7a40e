// Graph neural network layers: GraphSAGE (paper §3.2) and GAT (§6.2 Q3).
//
// Both operate on a packed batch of kernel graphs: a node-feature matrix
// [N, d] and the block-diagonal adjacency. Mean aggregation runs over
// row-sorted edge lists; the GAT edge mask stays dense, since its attention
// is O(n^2) per graph anyway.
#pragma once

#include <random>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/op_kernels.h"
#include "nn/tape.h"

namespace tpuperf::nn {

// Precomputed constant adjacency operators for one kernel graph.
struct GraphStructure {
  // Mean aggregator over incoming dataflow edges: row i holds
  // 1/|operands(i)| for each operand j of i (repeated operands summed).
  EdgeList in_agg;
  // Mean aggregator over outgoing edges (users).
  EdgeList out_agg;
  // Symmetric union used by the undirected ablation and as the GAT mask
  // (includes self-loops).
  Matrix sym_mask;
  // Row-renormalized in_agg + out_agg (mean aggregator over the symmetric
  // neighborhood), used by the undirected ablation. Built on demand: empty
  // unless BuildGraphStructure was asked for it.
  EdgeList sym_norm;
};

// Block-diagonal adjacency over a packed batch of kernel graphs. Nodes of
// kernel b occupy rows [offsets[b], offsets[b+1]) of the packed node matrix;
// the implied batch adjacency is blockdiag(blocks[0]->in_agg, ...) etc., but
// it is referenced and applied per block, so the batch pays for its edges
// only. Non-owning: the pointed-to
// structures (the PreparedKernels they live in) must outlive this batch and
// any tape built from it.
struct BatchedGraphStructure {
  std::vector<const GraphStructure*> blocks;  // one per kernel, non-owning
  std::vector<int> offsets;                   // B+1 entries, offsets[0] == 0

  int num_graphs() const noexcept { return static_cast<int>(blocks.size()); }
  int total_nodes() const noexcept {
    return offsets.empty() ? 0 : offsets.back();
  }
};

// Packs per-kernel structures into a block-diagonal batch structure
// referencing (not copying) them.
BatchedGraphStructure PackGraphStructures(
    std::span<const GraphStructure* const> structures);

// One GraphSAGE layer:
//   eps_i = l2(f3(concat(h_i, mean_{j in N_in(i)} f2_in(h_j),
//                             mean_{j in N_out(i)} f2_out(h_j))))
// With directed=false a single f2 is applied over the symmetric
// neighborhood — the 'Undirected' ablation of Table 3.
class GraphSageLayer {
 public:
  GraphSageLayer() = default;
  GraphSageLayer(ParamStore& store, const std::string& name, int dim,
                 bool directed, bool l2_normalize, std::mt19937_64& rng);

  // Forward over a packed batch (one graph is the one-block case): dense
  // transforms (f2, f3) run as single large GEMMs over all nodes;
  // aggregation applies each block of the block-diagonal adjacency to its
  // row segment, so a kernel's rows never depend on its batch-mates.
  Tensor Forward(Tape& tape, Tensor h, const BatchedGraphStructure& gs) const;

 private:
  Linear f2_in_, f2_out_, f3_;
  bool directed_ = true;
  bool l2_normalize_ = true;
};

// One multi-head GAT layer with additive attention
// (LeakyReLU(a_src . Wh_i + a_dst . Wh_j)) masked to graph edges
// (plus self-loops); heads are concatenated.
class GatLayer {
 public:
  GatLayer() = default;
  GatLayer(ParamStore& store, const std::string& name, int dim, int num_heads,
           std::mt19937_64& rng);

  // Forward over a packed batch: the per-head projections run as single
  // GEMMs over all nodes; attention (inherently O(n^2) per graph) is applied
  // per segment so nodes never attend across kernels.
  Tensor Forward(Tape& tape, Tensor h, const BatchedGraphStructure& gs) const;

 private:
  struct Head {
    Linear w;
    Parameter* a_src = nullptr;
    Parameter* a_dst = nullptr;
  };

  std::vector<Head> heads_;
  Linear merge_;
};

// Builds the adjacency operators from operand lists.
// operand_lists[i] holds the operand node ids of node i. `build_sym_norm`
// skips the symmetric-mean operator when the model is directed and will
// never read it.
GraphStructure BuildGraphStructure(
    const std::vector<std::vector<int>>& operand_lists,
    bool build_sym_norm = true);

}  // namespace tpuperf::nn
