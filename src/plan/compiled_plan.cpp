// CompiledPlan: liveness-planned buffer assignment (constructor) and the
// schedule replay loop (Run). See plan/plan.h for the determinism contract.
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

// Enumerates the logical buffers an instruction reads / writes.
template <typename Fn>
void ForEachRead(const Instr& ins, Fn&& fn) {
  if (ins.a >= 0) fn(ins.a);
  if (ins.b >= 0) fn(ins.b);
  if (ins.c >= 0) fn(ins.c);
}

template <typename Fn>
void ForEachWrite(const Instr& ins, Fn&& fn) {
  fn(ins.dst);
}

}  // namespace

PlanInput PlanInput::FromBatch(const core::PreparedBatch& batch) {
  PlanInput input;
  input.opcode_ids = batch.opcode_ids;
  input.node_features = &batch.node_features;
  input.static_perf = &batch.static_perf;
  input.tile_features =
      batch.tile_features.empty() ? nullptr : &batch.tile_features;
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

CompiledPlan::CompiledPlan(Spec spec, const Options& options)
    : spec_(std::move(spec)), options_(options) {
  const int num_buffers = static_cast<int>(spec_.buffer_rows.size());
  const int num_instrs = static_cast<int>(spec_.instrs.size());
  if (num_instrs == 0 || spec_.output_buffer < 0 ||
      spec_.output_buffer >= num_buffers) {
    throw std::invalid_argument("CompiledPlan: empty or inconsistent spec");
  }

  // ---- Liveness: first definition and last use of every logical buffer ----
  std::vector<int> def(static_cast<size_t>(num_buffers), -1);
  last_use_.assign(static_cast<size_t>(num_buffers), -1);
  for (int i = 0; i < num_instrs; ++i) {
    const Instr& ins = spec_.instrs[static_cast<size_t>(i)];
    ForEachWrite(ins, [&](int buf) {
      if (def[static_cast<size_t>(buf)] < 0) def[static_cast<size_t>(buf)] = i;
      last_use_[static_cast<size_t>(buf)] = i;
    });
    ForEachRead(ins, [&](int buf) {
      if (def[static_cast<size_t>(buf)] < 0) {
        throw std::invalid_argument("CompiledPlan: read before write");
      }
      last_use_[static_cast<size_t>(buf)] = i;
    });
  }
  // The score buffer is read after the replay loop finishes.
  last_use_[static_cast<size_t>(spec_.output_buffer)] = num_instrs;
  for (auto& ins : spec_.instrs) {
    ins.first_write = def[static_cast<size_t>(ins.dst)] ==
                      static_cast<int>(&ins - spec_.instrs.data());
  }

  // ---- Physical assignment: greedy free-list over the schedule ------------
  // A physical buffer freed by instruction j may be reassigned to a buffer
  // defined at instruction i only when j < i (released strictly before the
  // define), so an instruction's output never aliases its inputs.
  const auto cap_elems = [&](int buf) {
    const std::size_t rows =
        spec_.buffer_rows[static_cast<size_t>(buf)] == Rows::kBatch
            ? static_cast<std::size_t>(spec_.batch_capacity)
            : static_cast<std::size_t>(spec_.node_capacity);
    return rows * static_cast<std::size_t>(
                      spec_.buffer_cols[static_cast<size_t>(buf)]);
  };
  physical_of_.assign(static_cast<size_t>(num_buffers), -1);
  std::vector<int> free_list;
  for (int i = 0; i < num_instrs; ++i) {
    const Instr& ins = spec_.instrs[static_cast<size_t>(i)];
    ForEachWrite(ins, [&](int buf) {
      if (def[static_cast<size_t>(buf)] != i ||
          physical_of_[static_cast<size_t>(buf)] >= 0) {
        return;
      }
      const std::size_t need = cap_elems(buf);
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
      physical_of_[static_cast<size_t>(buf)] = phys;
    });
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

  for (const Instr& ins : spec_.instrs) {
    if (ins.kind == OpKind::kCopyInput ||
        ins.kind == OpKind::kBroadcastSegments) {
      if (ins.input_kind == 1) needs_static_perf_ = true;
      if (ins.input_kind == 2) needs_tile_ = true;
    }
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
  if (batch < 1 || batch > spec_.batch_capacity) {
    throw std::invalid_argument("CompiledPlan: batch size " +
                                std::to_string(batch) +
                                " outside compiled capacity");
  }
  if (nodes < 1 || nodes > spec_.node_capacity) {
    throw std::invalid_argument("CompiledPlan: total nodes " +
                                std::to_string(nodes) +
                                " outside compiled capacity");
  }
  nn::CheckSegmentOffsetsFor(nodes, input.offsets, "CompiledPlan");
  if (static_cast<int>(input.opcode_ids.size()) != nodes) {
    throw std::invalid_argument("CompiledPlan: opcode_ids size mismatch");
  }
  if (input.node_features == nullptr ||
      input.node_features->rows() != nodes ||
      input.node_features->cols() != spec_.node_feature_cols) {
    throw std::invalid_argument("CompiledPlan: node feature shape mismatch");
  }
  if (static_cast<int>(input.blocks.size()) != batch) {
    throw std::invalid_argument("CompiledPlan: adjacency block count");
  }
  if (needs_static_perf_ &&
      (input.static_perf == nullptr || input.static_perf->rows() != batch ||
       input.static_perf->cols() != spec_.static_perf_cols)) {
    throw std::invalid_argument("CompiledPlan: static perf shape mismatch");
  }
  if (needs_tile_ &&
      (input.tile_features == nullptr ||
       input.tile_features->rows() != batch ||
       input.tile_features->cols() != spec_.tile_cols)) {
    throw std::invalid_argument("CompiledPlan: tile feature shape mismatch");
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
            physical_of_[static_cast<size_t>(spec_.output_buffer)])];
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
    return spec_.buffer_rows[static_cast<size_t>(id)] == Rows::kBatch ? batch
                                                                      : nodes;
  };
  const auto input_matrix = [&](int kind) -> const nn::Matrix& {
    switch (kind) {
      case 1:
        return *input.static_perf;
      case 2:
        return *input.tile_features;
      default:
        return *input.node_features;
    }
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

  const int num_instrs = static_cast<int>(spec_.instrs.size());
  for (int i = 0; i < num_instrs; ++i) {
    const Instr& ins = spec_.instrs[static_cast<size_t>(i)];
    nn::Matrix& d = buf(ins.dst);
    const int dst_rows = rows_of(ins.dst);
    const int dst_cols = spec_.buffer_cols[static_cast<size_t>(ins.dst)];
    // The defining write reshapes (and, for accumulate kernels, clears) the
    // destination; later writers to the same buffer fill other columns.
    // kGemm destinations are reshaped by MatMulInto, which writes every
    // element.
    if (ins.first_write && ins.kind != OpKind::kGemm) {
      Reshape(d, dst_rows, dst_cols, ins.zero_dst);
    }
    switch (ins.kind) {
      case OpKind::kGatherEmbed: {
        const nn::Matrix& table = *ins.w;
        const int width = table.cols();
        for (int r = 0; r < nodes; ++r) {
          const int id = input.opcode_ids[static_cast<size_t>(r)];
          if (id < 0 || id >= table.rows()) {
            throw std::out_of_range("CompiledPlan: opcode id out of range");
          }
          const auto src = table.row(id);
          std::copy(src.begin(), src.end(),
                    d.row(r).begin() + ins.col_off);
          (void)width;
        }
        break;
      }
      case OpKind::kCopyInput: {
        const nn::Matrix& src = input_matrix(ins.input_kind);
        for (int r = 0; r < src.rows(); ++r) {
          const auto s = src.row(r);
          std::copy(s.begin(), s.end(), d.row(r).begin() + ins.col_off);
        }
        break;
      }
      case OpKind::kBroadcastSegments: {
        const nn::Matrix& src = input_matrix(ins.input_kind);
        for (int b = 0; b < batch; ++b) {
          const auto s = src.row(b);
          for (int r = input.offsets[static_cast<size_t>(b)];
               r < input.offsets[static_cast<size_t>(b) + 1]; ++r) {
            std::copy(s.begin(), s.end(), d.row(r).begin() + ins.col_off);
          }
        }
        break;
      }
      case OpKind::kCopyCols: {
        const nn::Matrix& src = buf(ins.a);
        for (int r = 0; r < src.rows(); ++r) {
          const auto s = src.row(r);
          std::copy(s.begin(), s.end(), d.row(r).begin() + ins.col_off);
        }
        break;
      }
      case OpKind::kGemm: {
        nn::MatMulInto(d, buf(ins.a), *ins.w);
        if (ins.w2 != nullptr) {
          const nn::Matrix& bias = *ins.w2;
          for (int r = 0; r < d.rows(); ++r) {
            for (int j = 0; j < d.cols(); ++j) d.at(r, j) += bias.at(0, j);
          }
        }
        if (ins.activation == 1) {
          for (float& v : d.flat()) v = v > 0 ? v : 0.0f;
        }
        break;
      }
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
        nn::LstmSequenceForward(d, buf(ins.a), ins.lstm->w_h, ins.lstm->b_all,
                                input.offsets, nullptr);
        break;
    }
    if (options_.poison_dead_buffers) {
      // Poison every buffer whose last reader just retired: any later read
      // of it is a liveness-plan bug and must surface as NaN output.
      for (int b = 0; b < static_cast<int>(last_use_.size()); ++b) {
        if (last_use_[static_cast<size_t>(b)] == i &&
            b != spec_.output_buffer) {
          const int phys = physical_of_[static_cast<size_t>(b)];
          PoisonMatrix(ctx.phys[static_cast<size_t>(phys)],
                       physical_capacity_[static_cast<size_t>(phys)]);
        }
      }
    }
  }
}

}  // namespace tpuperf::plan
