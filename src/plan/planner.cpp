// The planner half of plan-compiled inference: LearnedCostModel::CompilePlan
// traces the exact ForwardBatchImpl op sequence for the model's configuration
// (see core/cost_model.cpp) and flattens it into a CompiledPlan instruction
// schedule. Implemented here, next to the executor, so the plan layer owns
// the full schedule format; these are out-of-line member definitions of
// LearnedCostModel.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/fault_injection.h"
#include "features/featurizer.h"
#include "nn/ops.h"
#include "plan/plan.h"

namespace tpuperf::core {
namespace {

using plan::Instr;
using plan::LstmPlanData;
using plan::OpKind;
using plan::Rows;

// Accumulates the instruction schedule and the logical buffer table while
// the compile pass walks the model's modules in forward order.
class PlanBuilder {
 public:
  int NewBuffer(Rows rows, int cols) {
    buffer_rows_.push_back(rows);
    buffer_cols_.push_back(cols);
    return static_cast<int>(buffer_rows_.size()) - 1;
  }
  int cols(int buffer) const {
    return buffer_cols_[static_cast<size_t>(buffer)];
  }

  Instr& Emit(OpKind kind) {
    instrs_.emplace_back();
    instrs_.back().kind = kind;
    return instrs_.back();
  }

  // y = x @ W [+ bias] [then ReLU] as one fused kGemm. The epilogues are
  // elementwise over the GEMM output, so folding them in place is
  // bit-identical to the tape's MatMulOp / AddRowBroadcastOp / ReluOp chain.
  int EmitLinear(const nn::Linear& linear, int in, Rows rows, int activation) {
    const int out = NewBuffer(rows, linear.out_features());
    Instr& i = Emit(OpKind::kGemm);
    i.dst = out;
    i.a = in;
    i.w = &linear.weight_param()->value;
    if (linear.bias_param() != nullptr) i.w2 = &linear.bias_param()->value;
    i.activation = activation;
    return out;
  }

  // y = x @ w for a bare parameter matrix (the GAT a_src / a_dst products).
  int EmitGemmParam(int in, const nn::Matrix* w, Rows rows) {
    const int out = NewBuffer(rows, w->cols());
    Instr& i = Emit(OpKind::kGemm);
    i.dst = out;
    i.a = in;
    i.w = w;
    return out;
  }

  int EmitMlp(const nn::Mlp& mlp, int in, Rows rows) {
    int h = in;
    const auto& layers = mlp.layers();
    for (size_t l = 0; l < layers.size(); ++l) {
      const bool last = l + 1 == layers.size();
      const int activation = last && !mlp.activate_last() ? 0 : 1;
      h = EmitLinear(layers[l], h, rows, activation);
    }
    return h;
  }

  int EmitLayerNorm(const nn::LayerNorm& norm, int in, Rows rows) {
    const int out = NewBuffer(rows, cols(in));
    Instr& i = Emit(OpKind::kLayerNorm);
    i.dst = out;
    i.a = in;
    i.w = &norm.gamma_param()->value;
    i.w2 = &norm.beta_param()->value;
    i.scale = 1e-5f;  // LayerNormRowsOp's default epsilon
    return out;
  }

  // Column concatenation materialized as one copy instruction per part —
  // together the parts cover every destination column.
  int EmitConcat(Rows rows, const std::vector<int>& parts) {
    int total = 0;
    for (const int p : parts) total += cols(p);
    const int out = NewBuffer(rows, total);
    int off = 0;
    for (const int p : parts) {
      Instr& i = Emit(OpKind::kCopyCols);
      i.dst = out;
      i.a = p;
      i.col_off = off;
      off += cols(p);
    }
    return out;
  }

  std::vector<Instr> TakeInstrs() { return std::move(instrs_); }
  std::vector<Rows> TakeBufferRows() { return std::move(buffer_rows_); }
  std::vector<int> TakeBufferCols() { return std::move(buffer_cols_); }

 private:
  std::vector<Instr> instrs_;
  std::vector<Rows> buffer_rows_;
  std::vector<int> buffer_cols_;
};

int EmitSage(PlanBuilder& b, const nn::GraphSageLayer& layer, int h) {
  // Tape: msg = BlockDiagMatMulConstA(blocks, offsets, ReluOp(f2(h))).
  const int t_in = b.EmitLinear(layer.f2_in(), h, Rows::kNodes, 1);
  const int msg_in = b.NewBuffer(Rows::kNodes, b.cols(t_in));
  {
    Instr& i = b.Emit(OpKind::kBlockAgg);
    i.dst = msg_in;
    i.a = t_in;
    i.block_kind = layer.directed() ? 0 : 2;  // in_agg / sym_norm
    i.zero_dst = true;
  }
  int concat;
  if (layer.directed()) {
    const int t_out = b.EmitLinear(layer.f2_out(), h, Rows::kNodes, 1);
    const int msg_out = b.NewBuffer(Rows::kNodes, b.cols(t_out));
    Instr& i = b.Emit(OpKind::kBlockAgg);
    i.dst = msg_out;
    i.a = t_out;
    i.block_kind = 1;  // out_agg
    i.zero_dst = true;
    concat = b.EmitConcat(Rows::kNodes, {h, msg_in, msg_out});
  } else {
    concat = b.EmitConcat(Rows::kNodes, {h, msg_in});
  }
  int out = b.EmitLinear(layer.f3(), concat, Rows::kNodes, 1);
  if (layer.l2_normalize()) {
    const int normed = b.NewBuffer(Rows::kNodes, b.cols(out));
    Instr& i = b.Emit(OpKind::kRowL2Norm);
    i.dst = normed;
    i.a = out;
    i.scale = 1e-6f;  // RowL2NormalizeOp's default epsilon
    out = normed;
  }
  return out;
}

int EmitGat(PlanBuilder& b, const nn::GatLayer& layer, int h) {
  std::vector<int> head_outputs;
  head_outputs.reserve(layer.heads().size());
  for (const auto& head : layer.heads()) {
    const int wh = b.EmitLinear(head.w, h, Rows::kNodes, 0);
    const int s = b.EmitGemmParam(wh, &head.a_src->value, Rows::kNodes);
    const int d = b.EmitGemmParam(wh, &head.a_dst->value, Rows::kNodes);
    const int ho = b.NewBuffer(Rows::kNodes, b.cols(wh));
    Instr& i = b.Emit(OpKind::kGatAttention);
    i.dst = ho;
    i.a = s;
    i.b = d;
    i.c = wh;
    i.scale = 0.2f;  // the LeakyReLU alpha of GatLayer::Forward
    i.zero_dst = true;
    head_outputs.push_back(ho);
  }
  const int merged = b.EmitConcat(Rows::kNodes, head_outputs);
  return b.EmitLinear(layer.merge(), merged, Rows::kNodes, 1);
}

int EmitTransformer(PlanBuilder& b, const nn::TransformerEncoder& encoder,
                    int h) {
  for (const auto& layer : encoder.layers()) {
    const int n1 = b.EmitLayerNorm(layer.norm1(), h, Rows::kNodes);
    const auto& attention = layer.attention();
    const float scale =
        1.0f / std::sqrt(static_cast<float>(attention.head_dim()));
    std::vector<int> head_outputs;
    head_outputs.reserve(attention.heads().size());
    for (const auto& head : attention.heads()) {
      const int q = b.EmitLinear(head.q, n1, Rows::kNodes, 0);
      const int k = b.EmitLinear(head.k, n1, Rows::kNodes, 0);
      const int v = b.EmitLinear(head.v, n1, Rows::kNodes, 0);
      const int ho = b.NewBuffer(Rows::kNodes, b.cols(v));
      Instr& i = b.Emit(OpKind::kSelfAttention);
      i.dst = ho;
      i.a = q;
      i.b = k;
      i.c = v;
      i.scale = scale;
      i.zero_dst = true;
      head_outputs.push_back(ho);
    }
    const int merged = b.EmitConcat(Rows::kNodes, head_outputs);
    const int attn = b.EmitLinear(attention.out(), merged, Rows::kNodes, 0);
    const int h2 = b.NewBuffer(Rows::kNodes, b.cols(h));
    {
      Instr& i = b.Emit(OpKind::kAdd);
      i.dst = h2;
      i.a = h;
      i.b = attn;
    }
    const int n2 = b.EmitLayerNorm(layer.norm2(), h2, Rows::kNodes);
    const int ffn = b.EmitMlp(layer.ffn(), n2, Rows::kNodes);
    const int out = b.NewBuffer(Rows::kNodes, b.cols(h2));
    Instr& i = b.Emit(OpKind::kAdd);
    i.dst = out;
    i.a = h2;
    i.b = ffn;
    h = out;
  }
  return h;
}

// Materializes the fused LSTM gate weights exactly as Lstm::ForwardBatched
// builds them on the tape per call: w_all = ConcatCols(wi, wf, wg, wo) split
// into the input-side block (rows [0, in)) and the recurrent block (rows
// [in, in+hidden)), plus the fused [1, 4h] bias — all plain copies, so the
// replayed kernels see bit-identical operands. Then xw = h @ w_x (kGemm, as
// the tape's MatMulOp) and the recurrence (kLstmReduce).
int EmitLstm(PlanBuilder& b, const nn::Lstm& lstm, int h) {
  const int hidden = lstm.hidden();
  const nn::Matrix* gate_w[4] = {&lstm.input_gate().weight_param()->value,
                                 &lstm.forget_gate().weight_param()->value,
                                 &lstm.cell_gate().weight_param()->value,
                                 &lstm.output_gate().weight_param()->value};
  const nn::Matrix* gate_b[4] = {&lstm.input_gate().bias_param()->value,
                                 &lstm.forget_gate().bias_param()->value,
                                 &lstm.cell_gate().bias_param()->value,
                                 &lstm.output_gate().bias_param()->value};
  const int z = gate_w[0]->rows();
  const int in_features = z - hidden;
  if (b.cols(h) != in_features) {
    throw std::logic_error("CompilePlan: LSTM input width mismatch");
  }
  auto data = std::make_shared<LstmPlanData>();
  data->w_x = nn::Matrix(in_features, 4 * hidden);
  data->w_h = nn::Matrix(hidden, 4 * hidden);
  data->b_all = nn::Matrix(1, 4 * hidden);
  for (int g = 0; g < 4; ++g) {
    for (int r = 0; r < z; ++r) {
      for (int j = 0; j < hidden; ++j) {
        const float w = gate_w[g]->at(r, j);
        if (r < in_features) {
          data->w_x.at(r, g * hidden + j) = w;
        } else {
          data->w_h.at(r - in_features, g * hidden + j) = w;
        }
      }
    }
    for (int j = 0; j < hidden; ++j) {
      data->b_all.at(0, g * hidden + j) = gate_b[g]->at(0, j);
    }
  }
  const int xw = b.NewBuffer(Rows::kNodes, 4 * hidden);
  {
    Instr& i = b.Emit(OpKind::kGemm);
    i.dst = xw;
    i.a = h;
    i.w = &data->w_x;
    i.lstm = data;  // keeps w_x alive
  }
  const int out = b.NewBuffer(Rows::kBatch, hidden);
  Instr& i = b.Emit(OpKind::kLstmReduce);
  i.dst = out;
  i.a = xw;
  i.lstm = std::move(data);
  return out;
}

}  // namespace

std::shared_ptr<const plan::CompiledPlan> LearnedCostModel::CompilePlan(
    int max_kernels, int max_total_nodes, bool poison_dead_buffers) const {
  // Models a planner failure. The serving engine has no other scoring path,
  // so it treats this like any model error: the batch fails, the circuit
  // breaker counts it, and the batch is answered analytically.
  MaybeInjectFault("plan.compile_fail");
  if (!fitted_) {
    throw std::logic_error("CompilePlan: scalers not fitted");
  }
  if (max_kernels < 1 || max_total_nodes < max_kernels) {
    throw std::invalid_argument("CompilePlan: bad capacities");
  }

  const ModelConfig& c = config_;
  const bool tile_node =
      c.use_tile_features && c.tile_placement == FeaturePlacement::kNodeFeatures;
  const bool perf_node = c.use_static_perf &&
                         c.static_perf_placement ==
                             FeaturePlacement::kNodeFeatures;
  const bool tile_ke = c.use_tile_features &&
                       c.tile_placement == FeaturePlacement::kKernelEmbedding;
  const bool perf_ke = c.use_static_perf &&
                       c.static_perf_placement ==
                           FeaturePlacement::kKernelEmbedding;
  const int embed_dim = c.opcode_embedding_dim;
  int input_width = embed_dim + feat::kNodeScalarFeatures;
  if (tile_node) input_width += feat::kTileFeatures;
  if (perf_node) input_width += feat::kStaticPerfFeatures;

  PlanBuilder b;

  // ---- Node inputs: opcode embedding ++ scalars (++ option-1 extras) ------
  const int x = b.NewBuffer(Rows::kNodes, input_width);
  {
    Instr& i = b.Emit(OpKind::kGatherEmbed);
    i.dst = x;
    i.w = &opcode_embedding_.table_param()->value;
  }
  {
    Instr& i = b.Emit(OpKind::kCopyInput);
    i.dst = x;
    i.col_off = embed_dim;
    i.input_kind = 0;
  }
  int off = embed_dim + feat::kNodeScalarFeatures;
  if (tile_node) {
    Instr& i = b.Emit(OpKind::kBroadcastSegments);
    i.dst = x;
    i.col_off = off;
    i.input_kind = 2;
    off += feat::kTileFeatures;
  }
  if (perf_node) {
    Instr& i = b.Emit(OpKind::kBroadcastSegments);
    i.dst = x;
    i.col_off = off;
    i.input_kind = 1;
  }

  int h = b.EmitMlp(f1_, x, Rows::kNodes);

  // ---- GNN ----------------------------------------------------------------
  for (const auto& layer : sage_layers_) h = EmitSage(b, layer, h);
  for (const auto& layer : gat_layers_) h = EmitGat(b, layer, h);

  h = b.EmitMlp(node_final_, h, Rows::kNodes);

  // ---- Segment-aware reduction to [B, kernel_embedding_dim] ---------------
  int kernel_embedding = -1;
  switch (c.reduction) {
    case ReductionKind::kPerNode: {
      const int per_node = b.EmitLinear(per_node_head_, h, Rows::kNodes, 0);
      kernel_embedding = b.NewBuffer(Rows::kBatch, 1);
      Instr& i = b.Emit(OpKind::kSegmentSum);
      i.dst = kernel_embedding;
      i.a = per_node;
      i.zero_dst = true;
      break;
    }
    case ReductionKind::kColumnWise: {
      const int mean = b.NewBuffer(Rows::kBatch, b.cols(h));
      {
        Instr& i = b.Emit(OpKind::kSegmentMean);
        i.dst = mean;
        i.a = h;
        i.zero_dst = true;
      }
      const int max = b.NewBuffer(Rows::kBatch, b.cols(h));
      {
        Instr& i = b.Emit(OpKind::kSegmentMax);
        i.dst = max;
        i.a = h;
      }
      kernel_embedding = b.EmitConcat(Rows::kBatch, {mean, max});
      break;
    }
    case ReductionKind::kLstm:
      kernel_embedding = EmitLstm(b, reduction_lstm_, h);
      break;
    case ReductionKind::kTransformer: {
      const int enc = EmitTransformer(b, reduction_transformer_, h);
      kernel_embedding = b.NewBuffer(Rows::kBatch, b.cols(enc));
      Instr& i = b.Emit(OpKind::kSegmentMean);
      i.dst = kernel_embedding;
      i.a = enc;
      i.zero_dst = true;
      break;
    }
  }

  // ---- Option-2 extras ----------------------------------------------------
  int merged = kernel_embedding;
  if (tile_ke || perf_ke) {
    int merged_cols = b.cols(kernel_embedding);
    if (tile_ke) merged_cols += feat::kTileFeatures;
    if (perf_ke) merged_cols += feat::kStaticPerfFeatures;
    merged = b.NewBuffer(Rows::kBatch, merged_cols);
    {
      Instr& i = b.Emit(OpKind::kCopyCols);
      i.dst = merged;
      i.a = kernel_embedding;
    }
    int moff = b.cols(kernel_embedding);
    if (tile_ke) {
      Instr& i = b.Emit(OpKind::kCopyInput);
      i.dst = merged;
      i.col_off = moff;
      i.input_kind = 2;
      moff += feat::kTileFeatures;
    }
    if (perf_ke) {
      Instr& i = b.Emit(OpKind::kCopyInput);
      i.dst = merged;
      i.col_off = moff;
      i.input_kind = 1;
    }
  }

  // Linear output head without activation; [B, 1].
  const int out = b.EmitLinear(output_head_, merged, Rows::kBatch, 0);

  plan::CompiledPlan::Spec spec;
  spec.instrs = b.TakeInstrs();
  spec.buffer_rows = b.TakeBufferRows();
  spec.buffer_cols = b.TakeBufferCols();
  spec.output_buffer = out;
  spec.batch_capacity = max_kernels;
  spec.node_capacity = max_total_nodes;
  spec.node_feature_cols = feat::kNodeScalarFeatures;
  spec.static_perf_cols = feat::kStaticPerfFeatures;
  spec.tile_cols = feat::kTileFeatures;
  spec.opcode_vocab = opcode_embedding_.table_param()->value.rows();
  plan::CompiledPlan::Options options;
  options.poison_dead_buffers = poison_dead_buffers;
  return std::make_shared<const plan::CompiledPlan>(std::move(spec), options);
}

std::vector<double> LearnedCostModel::PredictBatchWithPlan(
    const plan::CompiledPlan& plan, const PreparedBatch& batch) const {
  std::vector<double> scores(static_cast<size_t>(batch.num_kernels()));
  plan.Run(plan::PlanInput::FromBatch(batch), scores);
  return scores;
}

}  // namespace tpuperf::core
