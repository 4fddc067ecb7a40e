// CompiledPlan: the generic rewrites of a recorded schedule, liveness-planned
// buffer assignment (constructor) and the schedule replay loop (Run). See
// plan/plan.h for the determinism contract.
#include "plan/plan.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cost_model.h"
#include "nn/op_kernels.h"

namespace tpuperf::plan {
namespace {

using nn::InputKind;
using nn::Instr;
using nn::OpKind;
using nn::Rows;

// Kinds whose kernel accumulates into its destination, which must start
// zeroed (the tape ops allocate it with NewMatrix).
bool ZeroesDst(OpKind kind) {
  return kind == OpKind::kBlockAgg || kind == OpKind::kSegmentSum ||
         kind == OpKind::kSegmentMean || kind == OpKind::kSelfAttention ||
         kind == OpKind::kGatAttention;
}

// Kinds that can write their output at a column offset of a wider buffer.
bool WritesAtColumnOffset(OpKind kind) {
  return kind == OpKind::kGatherEmbed || kind == OpKind::kBroadcastSegments ||
         kind == OpKind::kCopyCols;
}

const nn::Matrix* InputMatrix(const PlanInput& input, InputKind kind) {
  return input.matrices[static_cast<size_t>(kind)];
}

// Reshapes a pooled matrix to [rows, cols] reusing its storage. The physical
// buffer was sized for the largest logical user at compile time, so this
// never allocates. `zero` selects the zero-filling recycling constructor
// (accumulate kernels expect a cleared output, exactly as the tape's
// NewMatrix does).
void Reshape(nn::Matrix& m, int rows, int cols, bool zero) {
  if (zero) {
    m = nn::Matrix(rows, cols, m.TakeStorage());
  } else {
    m = nn::Matrix(rows, cols, m.TakeStorage(), nn::Matrix::Uninit{});
  }
}

void PoisonMatrix(nn::Matrix& m, std::size_t capacity) {
  Reshape(m, static_cast<int>(capacity), 1, /*zero=*/false);
  m.Fill(std::numeric_limits<float>::quiet_NaN());
}

// Enumerates the logical buffers an instruction reads (it writes dst).
template <typename Fn>
void ForEachRead(const Instr& ins, Fn&& fn) {
  if (ins.a >= 0) fn(ins.a);
  if (ins.b >= 0) fn(ins.b);
  if (ins.c >= 0) fn(ins.c);
}

}  // namespace

PlanInput PlanInput::FromBatch(const core::PreparedBatch& batch) {
  PlanInput input;
  input.opcode_ids = batch.opcode_ids;
  input.matrices = {
      &batch.node_features, &batch.static_perf,
      batch.tile_features.empty() ? nullptr : &batch.tile_features};
  input.blocks = batch.structure.blocks;
  input.offsets = batch.structure.offsets;
  return input;
}

// Per-run mutable state: the physical buffer slab plus grow-only integer
// workspaces. Pooled by CompiledPlan so concurrent Run calls never share.
struct CompiledPlan::ExecutionContext {
  std::vector<nn::Matrix> phys;
  std::vector<const nn::EdgeList*> agg_ptrs;  // adjacency blocks
  std::vector<const nn::Matrix*> mask_ptrs;   // GAT masks
  std::vector<std::int64_t> sq;               // squared segment offsets
  int max_len = 0;
  bool sq_valid = false;
};

// The recording has one instruction per tape op; two rewrites restore the
// fused forms the tape computes in separate passes, without changing a
// float. A bias add or ReLU folds into the GEMM epilogue when it alone reads
// the GEMM's output. A concatenated part is written straight into its
// concat when the concat alone reads it and its writer can write at a column
// offset. Buffers no instruction touches any more are then dropped.
void CompiledPlan::Rewrite() {
  std::vector<Instr>& instrs = schedule_.instrs;
  const size_t num_buffers = schedule_.buffer_rows.size();
  std::vector<int> readers(num_buffers, 0), writers(num_buffers, 0);
  std::vector<int> writer(num_buffers, -1);
  for (size_t i = 0; i < instrs.size(); ++i) {
    ForEachRead(instrs[i],
                [&](int buf) { ++readers[static_cast<size_t>(buf)]; });
    ++writers[static_cast<size_t>(instrs[i].dst)];
    writer[static_cast<size_t>(instrs[i].dst)] = static_cast<int>(i);
  }
  std::vector<bool> folded(instrs.size(), false);
  for (size_t i = 0; i < instrs.size(); ++i) {
    const Instr& ins = instrs[i];
    if (ins.a < 0 || ins.a == schedule_.output_buffer) continue;
    const auto a = static_cast<size_t>(ins.a);
    if (readers[a] != 1 || writers[a] != 1) continue;
    Instr& producer = instrs[static_cast<size_t>(writer[a])];
    const bool gemm = producer.kind == OpKind::kGemm && !producer.relu;
    if (ins.kind == OpKind::kAddBias && gemm && producer.w2 == nullptr) {
      producer.w2 = ins.w;
    } else if (ins.kind == OpKind::kRelu && gemm) {
      producer.relu = true;
    } else if (ins.kind == OpKind::kCopyCols &&
               WritesAtColumnOffset(producer.kind)) {
      producer.col_off += ins.col_off;
    } else {
      continue;
    }
    producer.dst = ins.dst;
    writer[static_cast<size_t>(ins.dst)] = writer[a];
    folded[i] = true;
  }

  std::vector<int> renumber(num_buffers, -1);
  std::vector<Rows> rows;
  std::vector<int> cols;
  const auto keep = [&](int& buf) {
    if (buf < 0) return;
    int& id = renumber[static_cast<size_t>(buf)];
    if (id < 0) {
      id = static_cast<int>(rows.size());
      rows.push_back(schedule_.buffer_rows[static_cast<size_t>(buf)]);
      cols.push_back(schedule_.buffer_cols[static_cast<size_t>(buf)]);
    }
    buf = id;
  };
  std::vector<Instr> kept;
  for (size_t i = 0; i < instrs.size(); ++i) {
    if (folded[i]) continue;
    Instr ins = instrs[i];
    keep(ins.a);
    keep(ins.b);
    keep(ins.c);
    keep(ins.dst);
    kept.push_back(ins);
  }
  keep(schedule_.output_buffer);
  instrs = std::move(kept);
  schedule_.buffer_rows = std::move(rows);
  schedule_.buffer_cols = std::move(cols);
}

CompiledPlan::CompiledPlan(nn::Schedule schedule, int batch_capacity,
                           int node_capacity, const Options& options)
    : schedule_(std::move(schedule)),
      batch_capacity_(batch_capacity),
      node_capacity_(node_capacity),
      options_(options) {
  const int num_recorded = static_cast<int>(schedule_.buffer_rows.size());
  if (schedule_.instrs.empty() || schedule_.output_buffer < 0 ||
      schedule_.output_buffer >= num_recorded ||
      schedule_.buffer_rows[static_cast<size_t>(schedule_.output_buffer)] !=
          Rows::kBatch) {
    throw std::invalid_argument("CompiledPlan: empty or inconsistent schedule");
  }
  Rewrite();
  const int num_buffers = static_cast<int>(schedule_.buffer_rows.size());
  const int num_instrs = static_cast<int>(schedule_.instrs.size());

  // ---- Liveness: first definition and last use of every logical buffer ----
  std::vector<int> def(static_cast<size_t>(num_buffers), -1);
  last_use_.assign(static_cast<size_t>(num_buffers), -1);
  for (int i = 0; i < num_instrs; ++i) {
    const Instr& ins = schedule_.instrs[static_cast<size_t>(i)];
    const auto dst = static_cast<size_t>(ins.dst);
    if (def[dst] < 0) def[dst] = i;
    last_use_[dst] = i;
    ForEachRead(ins, [&](int buf) {
      if (def[static_cast<size_t>(buf)] < 0) {
        throw std::invalid_argument("CompiledPlan: read before write");
      }
      last_use_[static_cast<size_t>(buf)] = i;
    });
  }
  // The score buffer is read after the replay loop finishes.
  last_use_[static_cast<size_t>(schedule_.output_buffer)] = num_instrs;
  for (auto& ins : schedule_.instrs) {
    ins.first_write = def[static_cast<size_t>(ins.dst)] ==
                      static_cast<int>(&ins - schedule_.instrs.data());
  }

  // ---- Physical assignment: greedy free-list over the schedule ------------
  // A physical buffer freed by instruction j may be reassigned to a buffer
  // defined at instruction i only when j < i (released strictly before the
  // define), so an instruction's output never aliases its inputs.
  const auto cap_elems = [&](int buf) {
    const std::size_t rows =
        schedule_.buffer_rows[static_cast<size_t>(buf)] == Rows::kBatch
            ? static_cast<std::size_t>(batch_capacity_)
            : static_cast<std::size_t>(node_capacity_);
    return rows * static_cast<std::size_t>(
                      schedule_.buffer_cols[static_cast<size_t>(buf)]);
  };
  physical_of_.assign(static_cast<size_t>(num_buffers), -1);
  std::vector<int> free_list;
  for (int i = 0; i < num_instrs; ++i) {
    const int dst = schedule_.instrs[static_cast<size_t>(i)].dst;
    if (def[static_cast<size_t>(dst)] == i) {
      const std::size_t need = cap_elems(dst);
      // Smallest sufficient free buffer; else grow the largest free one.
      int best = -1, largest = -1;
      for (size_t f = 0; f < free_list.size(); ++f) {
        const std::size_t cap =
            physical_capacity_[static_cast<size_t>(free_list[f])];
        if (cap >= need &&
            (best < 0 ||
             cap < physical_capacity_[static_cast<size_t>(
                       free_list[static_cast<size_t>(best)])])) {
          best = static_cast<int>(f);
        }
        if (largest < 0 ||
            cap > physical_capacity_[static_cast<size_t>(
                      free_list[static_cast<size_t>(largest)])]) {
          largest = static_cast<int>(f);
        }
      }
      int phys;
      if (best >= 0 || largest >= 0) {
        const size_t pick = static_cast<size_t>(best >= 0 ? best : largest);
        phys = free_list[pick];
        free_list.erase(free_list.begin() + static_cast<std::ptrdiff_t>(pick));
        physical_capacity_[static_cast<size_t>(phys)] =
            std::max(physical_capacity_[static_cast<size_t>(phys)], need);
      } else {
        phys = static_cast<int>(physical_capacity_.size());
        physical_capacity_.push_back(need);
      }
      physical_of_[static_cast<size_t>(dst)] = phys;
    }
    // Release buffers whose last reader just retired.
    for (int buf = 0; buf < num_buffers; ++buf) {
      if (last_use_[static_cast<size_t>(buf)] == i) {
        free_list.push_back(physical_of_[static_cast<size_t>(buf)]);
      }
    }
  }
  slab_bytes_ = 0;
  for (const std::size_t cap : physical_capacity_) {
    if (cap > static_cast<std::size_t>(std::numeric_limits<int>::max())) {
      throw std::invalid_argument("CompiledPlan: buffer capacity exceeds int");
    }
    slab_bytes_ += cap * sizeof(float);
  }

}

CompiledPlan::~CompiledPlan() = default;

std::unique_ptr<CompiledPlan::ExecutionContext> CompiledPlan::AcquireContext()
    const {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!context_pool_.empty()) {
      auto ctx = std::move(context_pool_.back());
      context_pool_.pop_back();
      return ctx;
    }
  }
  auto ctx = std::make_unique<ExecutionContext>();
  ctx->phys.reserve(physical_capacity_.size());
  for (const std::size_t cap : physical_capacity_) {
    // Allocate at full capacity so every later Reshape reuses the storage;
    // each buffer's defining write reshapes it, so nothing is filled here.
    ctx->phys.emplace_back(static_cast<int>(cap), 1, nn::Matrix::Storage(),
                           nn::Matrix::Uninit{});
  }
  return ctx;
}

void CompiledPlan::ReleaseContext(std::unique_ptr<ExecutionContext> ctx) const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  context_pool_.push_back(std::move(ctx));
}

void CompiledPlan::ValidateInput(const PlanInput& input, int batch,
                                 int nodes) const {
  if (batch < 1 || batch > batch_capacity_) {
    throw std::invalid_argument("CompiledPlan: batch size " +
                                std::to_string(batch) +
                                " outside compiled capacity");
  }
  if (nodes < 1 || nodes > node_capacity_) {
    throw std::invalid_argument("CompiledPlan: total nodes " +
                                std::to_string(nodes) +
                                " outside compiled capacity");
  }
  nn::CheckSegmentOffsetsFor(nodes, input.offsets, "CompiledPlan");
  if (static_cast<int>(input.opcode_ids.size()) != nodes) {
    throw std::invalid_argument("CompiledPlan: opcode_ids size mismatch");
  }
  if (static_cast<int>(input.blocks.size()) != batch) {
    throw std::invalid_argument("CompiledPlan: adjacency block count");
  }
  static constexpr const char* kInputNames[nn::kNumInputKinds] = {
      "node feature", "static perf", "tile feature"};
  for (int k = 0; k < nn::kNumInputKinds; ++k) {
    const nn::InputShape& shape = schedule_.inputs[static_cast<size_t>(k)];
    if (shape.cols == 0) continue;  // the schedule never reads it
    const nn::Matrix* m = InputMatrix(input, static_cast<InputKind>(k));
    if (m == nullptr ||
        m->rows() != (shape.rows == Rows::kBatch ? batch : nodes) ||
        m->cols() != shape.cols) {
      throw std::invalid_argument(std::string("CompiledPlan: ") +
                                  kInputNames[k] + " shape mismatch");
    }
  }
}

void CompiledPlan::Run(const PlanInput& input, std::span<double> out) const {
  const int batch = static_cast<int>(input.offsets.size()) - 1;
  const int nodes = input.offsets.empty() ? 0 : input.offsets.back();
  ValidateInput(input, batch, nodes);
  if (static_cast<int>(out.size()) != batch) {
    throw std::invalid_argument("CompiledPlan: output span size mismatch");
  }
  auto ctx = AcquireContext();
  try {
    Execute(*ctx, input, batch, nodes);
    const nn::Matrix& scores =
        ctx->phys[static_cast<size_t>(
            physical_of_[static_cast<size_t>(schedule_.output_buffer)])];
    for (int b = 0; b < batch; ++b) {
      out[static_cast<size_t>(b)] = static_cast<double>(scores.at(b, 0));
    }
  } catch (...) {
    ReleaseContext(std::move(ctx));
    throw;
  }
  ReleaseContext(std::move(ctx));
}

void CompiledPlan::Execute(ExecutionContext& ctx, const PlanInput& input,
                           int batch, int nodes) const {
  const auto buf = [&](int id) -> nn::Matrix& {
    return ctx.phys[static_cast<size_t>(physical_of_[static_cast<size_t>(id)])];
  };
  const auto rows_of = [&](int id) {
    return schedule_.buffer_rows[static_cast<size_t>(id)] == Rows::kBatch
               ? batch
               : nodes;
  };
  // The source of a copy or broadcast: buffer a, or the batch input.
  const auto source = [&](const Instr& ins) -> const nn::Matrix& {
    return ins.a >= 0 ? buf(ins.a) : *InputMatrix(input, ins.input);
  };
  const auto ensure_sq = [&] {
    if (!ctx.sq_valid) {
      nn::SquaredSegmentOffsetsInto(input.offsets, ctx.sq);
      ctx.max_len = nn::MaxSegmentLength(input.offsets);
      ctx.sq_valid = true;
    }
  };
  ctx.sq_valid = false;

  if (options_.poison_dead_buffers) {
    for (size_t p = 0; p < ctx.phys.size(); ++p) {
      PoisonMatrix(ctx.phys[p], physical_capacity_[p]);
    }
  }

  const int num_instrs = static_cast<int>(schedule_.instrs.size());
  for (int i = 0; i < num_instrs; ++i) {
    const Instr& ins = schedule_.instrs[static_cast<size_t>(i)];
    nn::Matrix& d = buf(ins.dst);
    const int dst_rows = rows_of(ins.dst);
    const int dst_cols = schedule_.buffer_cols[static_cast<size_t>(ins.dst)];
    // The defining write reshapes (and, for accumulate kernels, clears) the
    // destination; later writers to the same buffer fill other columns.
    // kGemm destinations are reshaped by MatMulInto, which writes every
    // element.
    if (ins.first_write && ins.kind != OpKind::kGemm) {
      Reshape(d, dst_rows, dst_cols, ZeroesDst(ins.kind));
    }
    switch (ins.kind) {
      case OpKind::kGatherEmbed:
        nn::GatherRowsForward(d, *ins.w, input.opcode_ids, ins.col_off);
        break;
      case OpKind::kBroadcastSegments:
        nn::BroadcastSegmentsForward(d, source(ins), input.offsets,
                                     ins.col_off);
        break;
      case OpKind::kCopyCols:
        nn::CopyColsForward(d, source(ins), ins.col_off);
        break;
      case OpKind::kGemm:
        // The fused epilogues run in place, in the tape's op order.
        nn::MatMulInto(d, buf(ins.a), *ins.w);
        if (ins.w2 != nullptr) nn::AddRowBroadcastForward(d, d, *ins.w2);
        if (ins.relu) nn::ReluForward(d, d);
        break;
      case OpKind::kAddBias:
        nn::AddRowBroadcastForward(d, buf(ins.a), *ins.w);
        break;
      case OpKind::kRelu:
        nn::ReluForward(d, buf(ins.a));
        break;
      case OpKind::kBlockAgg: {
        nn::EdgeList nn::GraphStructure::*op =
            ins.block_kind == 0   ? &nn::GraphStructure::in_agg
            : ins.block_kind == 1 ? &nn::GraphStructure::out_agg
                                  : &nn::GraphStructure::sym_norm;
        ctx.agg_ptrs.resize(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
          ctx.agg_ptrs[static_cast<size_t>(b)] =
              &(input.blocks[static_cast<size_t>(b)]->*op);
        }
        nn::EdgeAggregateForward(d, ctx.agg_ptrs, input.offsets, buf(ins.a));
        break;
      }
      case OpKind::kRowL2Norm:
        nn::RowL2NormalizeForward(d, buf(ins.a), ins.scale, nullptr);
        break;
      case OpKind::kLayerNorm:
        nn::LayerNormRowsForward(d, buf(ins.a), *ins.w, *ins.w2, ins.scale,
                                 nullptr, nullptr);
        break;
      case OpKind::kAdd: {
        const nn::Matrix& a = buf(ins.a);
        const nn::Matrix& b = buf(ins.b);
        for (size_t e = 0; e < a.size(); ++e) {
          d.data()[e] = a.data()[e] + b.data()[e];
        }
        break;
      }
      case OpKind::kSegmentSum:
        nn::SegmentSumForward(d, buf(ins.a), input.offsets);
        break;
      case OpKind::kSegmentMean:
        nn::SegmentMeanForward(d, buf(ins.a), input.offsets, nullptr);
        break;
      case OpKind::kSegmentMax:
        nn::SegmentMaxForward(d, buf(ins.a), input.offsets, nullptr);
        break;
      case OpKind::kSelfAttention:
        ensure_sq();
        nn::BlockDiagSelfAttentionForward(d, buf(ins.a), buf(ins.b),
                                          buf(ins.c), input.offsets, ctx.sq,
                                          ctx.max_len, ins.scale, nullptr);
        break;
      case OpKind::kGatAttention: {
        ensure_sq();
        ctx.mask_ptrs.resize(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
          const nn::Matrix& mask =
              input.blocks[static_cast<size_t>(b)]->sym_mask;
          const int len = input.offsets[static_cast<size_t>(b) + 1] -
                          input.offsets[static_cast<size_t>(b)];
          if (mask.rows() != len || mask.cols() != len) {
            throw std::invalid_argument(
                "CompiledPlan: GAT mask shape mismatch");
          }
          ctx.mask_ptrs[static_cast<size_t>(b)] = &mask;
        }
        nn::BlockDiagGatAttentionForward(d, buf(ins.a), buf(ins.b), buf(ins.c),
                                         ctx.mask_ptrs, input.offsets, ctx.sq,
                                         ctx.max_len, ins.scale, nullptr);
        break;
      }
      case OpKind::kLstmReduce:
        nn::LstmSequenceForward(d, buf(ins.a), *ins.w, *ins.w2, input.offsets,
                                nullptr);
        break;
    }
    if (options_.poison_dead_buffers) {
      // Poison every buffer whose last reader just retired: any later read
      // of it is a liveness-plan bug and must surface as NaN output.
      for (int b = 0; b < static_cast<int>(last_use_.size()); ++b) {
        if (last_use_[static_cast<size_t>(b)] == i &&
            b != schedule_.output_buffer) {
          const int phys = physical_of_[static_cast<size_t>(b)];
          PoisonMatrix(ctx.phys[static_cast<size_t>(phys)],
                       physical_capacity_[static_cast<size_t>(phys)]);
        }
      }
    }
  }
}

}  // namespace tpuperf::plan
