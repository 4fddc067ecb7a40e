#include "nn/gnn.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tpuperf::nn {

namespace {

// Appends one row of (column, weight) edges to `list`: sorted by column,
// repeated columns summed. Every caller gives a repeated column the same
// weight each time, so the sum is the dense build's `+=` sequence whatever
// order the sort leaves them in.
void AppendRow(EdgeList& list, std::vector<std::pair<int, float>>& edges) {
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t e = 0; e < edges.size(); ++e) {
    if (e > 0 && edges[e].first == edges[e - 1].first) {
      list.weight.back() += edges[e].second;
    } else {
      list.col.push_back(edges[e].first);
      list.weight.push_back(edges[e].second);
    }
  }
  list.row_begin.push_back(static_cast<int>(list.col.size()));
}

}  // namespace

GraphStructure BuildGraphStructure(
    const std::vector<std::vector<int>>& operand_lists, bool build_sym_norm) {
  const int n = static_cast<int>(operand_lists.size());
  GraphStructure gs;
  gs.sym_mask = Matrix(n, n);

  // users[j]: the nodes using j, ascending, once per use.
  std::vector<std::vector<int>> users(static_cast<size_t>(n));
  std::vector<std::pair<int, float>> edges;
  for (int i = 0; i < n; ++i) {
    const auto& ops = operand_lists[static_cast<size_t>(i)];
    const float in_w = ops.empty() ? 0.0f : 1.0f / static_cast<float>(ops.size());
    edges.clear();
    for (const int j : ops) {
      edges.emplace_back(j, in_w);
      users[static_cast<size_t>(j)].push_back(i);
      gs.sym_mask.at(i, j) = 1.0f;
      gs.sym_mask.at(j, i) = 1.0f;
    }
    gs.sym_mask.at(i, i) = 1.0f;
    AppendRow(gs.in_agg, edges);
  }
  // out_agg[j][i] = 1/out_degree(j) for each edge j -> i (j used by i).
  for (int j = 0; j < n; ++j) {
    const auto& used_by = users[static_cast<size_t>(j)];
    edges.clear();
    for (const int i : used_by) {
      edges.emplace_back(i, 1.0f / static_cast<float>(used_by.size()));
    }
    AppendRow(gs.out_agg, edges);
  }
  if (build_sym_norm) {
    // Renormalize rows of in_agg + out_agg so the mean aggregator stays a
    // mean (used by the undirected ablation): merge the two sorted rows,
    // sum in ascending column order, divide.
    const EdgeList& in = gs.in_agg;
    const EdgeList& out = gs.out_agg;
    for (int i = 0; i < n; ++i) {
      edges.clear();
      int a = in.row_begin[static_cast<size_t>(i)];
      int b = out.row_begin[static_cast<size_t>(i)];
      const int a_end = in.row_begin[static_cast<size_t>(i) + 1];
      const int b_end = out.row_begin[static_cast<size_t>(i) + 1];
      while (a < a_end || b < b_end) {
        const int ca = a < a_end ? in.col[static_cast<size_t>(a)] : n;
        const int cb = b < b_end ? out.col[static_cast<size_t>(b)] : n;
        const int c = std::min(ca, cb);
        const float wa = ca == c ? in.weight[static_cast<size_t>(a++)] : 0.0f;
        const float wb = cb == c ? out.weight[static_cast<size_t>(b++)] : 0.0f;
        edges.emplace_back(c, wa + wb);
      }
      float total = 0;
      for (const auto& e : edges) total += e.second;
      for (auto& e : edges) e.second /= total;
      AppendRow(gs.sym_norm, edges);
    }
  }
  return gs;
}

BatchedGraphStructure PackGraphStructures(
    std::span<const GraphStructure* const> structures) {
  BatchedGraphStructure batch;
  batch.blocks.reserve(structures.size());
  batch.offsets.reserve(structures.size() + 1);
  batch.offsets.push_back(0);
  for (const GraphStructure* gs : structures) {
    if (gs == nullptr) {
      throw std::invalid_argument("PackGraphStructures: null structure");
    }
    batch.blocks.push_back(gs);
    batch.offsets.push_back(batch.offsets.back() + gs->sym_mask.rows());
  }
  return batch;
}

GraphSageLayer::GraphSageLayer(ParamStore& store, const std::string& name,
                               int dim, bool directed, bool l2_normalize,
                               std::mt19937_64& rng)
    : directed_(directed), l2_normalize_(l2_normalize) {
  f2_in_ = Linear(store, name + ".f2_in", dim, dim, rng);
  if (directed) {
    f2_out_ = Linear(store, name + ".f2_out", dim, dim, rng);
    f3_ = Linear(store, name + ".f3", 3 * dim, dim, rng);
  } else {
    f3_ = Linear(store, name + ".f3", 2 * dim, dim, rng);
  }
}

Tensor GraphSageLayer::Forward(Tape& tape, Tensor h,
                               const BatchedGraphStructure& gs) const {
  const auto aggregate = [&](EdgeList GraphStructure::*op, const Linear& f2) {
    std::vector<const EdgeList*> blocks;
    blocks.reserve(gs.blocks.size());
    for (const GraphStructure* block : gs.blocks) {
      blocks.push_back(&(block->*op));
    }
    return BlockDiagMatMulConstA(tape, blocks, gs.offsets,
                                 ReluOp(tape, f2.Forward(tape, h)));
  };
  Tensor out;
  if (directed_) {
    const Tensor parts[] = {h, aggregate(&GraphStructure::in_agg, f2_in_),
                            aggregate(&GraphStructure::out_agg, f2_out_)};
    out = f3_.Forward(tape, ConcatColsOp(tape, parts));
  } else {
    // Undirected ablation: same feedforward for both directions, aggregated
    // over the symmetric neighborhood (sym_norm, precomputed at build time).
    const Tensor parts[] = {h, aggregate(&GraphStructure::sym_norm, f2_in_)};
    out = f3_.Forward(tape, ConcatColsOp(tape, parts));
  }
  out = ReluOp(tape, out);
  if (l2_normalize_) out = RowL2NormalizeOp(tape, out);
  return out;
}

GatLayer::GatLayer(ParamStore& store, const std::string& name, int dim,
                   int num_heads, std::mt19937_64& rng) {
  if (num_heads <= 0 || dim % num_heads != 0) {
    throw std::invalid_argument("GatLayer: dim must be divisible by heads");
  }
  const int head_dim = dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    const std::string prefix = name + ".h" + std::to_string(h);
    Head head;
    head.w = Linear(store, prefix + ".w", dim, head_dim, rng);
    head.a_src = store.Create(prefix + ".a_src", head_dim, 1,
                              Init::kXavierUniform, rng);
    head.a_dst = store.Create(prefix + ".a_dst", head_dim, 1,
                              Init::kXavierUniform, rng);
    heads_.push_back(std::move(head));
  }
  merge_ = Linear(store, name + ".merge", dim, dim, rng);
}

Tensor GatLayer::Forward(Tape& tape, Tensor h,
                         const BatchedGraphStructure& gs) const {
  if (heads_.empty()) throw std::logic_error("GatLayer: uninitialized");
  std::vector<const Matrix*> masks;
  masks.reserve(gs.blocks.size());
  for (const GraphStructure* block : gs.blocks) {
    masks.push_back(&block->sym_mask);
  }
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    // Dense projections over the whole packed batch (single GEMMs).
    Tensor wh = head.w.Forward(tape, h);  // [N, head_dim]
    Tensor s = MatMulOp(tape, wh, tape.ParamLeaf(*head.a_src));  // [N, 1]
    Tensor d = MatMulOp(tape, wh, tape.ParamLeaf(*head.a_dst));  // [N, 1]
    // Attention stays per segment (nodes never attend across kernels): one
    // fused op per head holds every segment's masked attention in one tape
    // node whose forward and backward shard segments across the pool.
    head_outputs.push_back(
        BlockDiagGatAttentionOp(tape, s, d, wh, masks, gs.offsets, 0.2f));
  }
  Tensor merged = ConcatColsOp(tape, head_outputs);
  return ReluOp(tape, merge_.Forward(tape, merged));
}

}  // namespace tpuperf::nn
