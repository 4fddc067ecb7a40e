#include "nn/schedule.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nn/gnn.h"
#include "nn/tape.h"

namespace tpuperf::nn {
namespace {

// `op` is the refused op's signature (std::source_location::function_name):
// "Tensor tpuperf::nn::MatMulOp(Tape&, Tensor, Tensor)" names MatMulOp.
[[noreturn]] void Refuse(const char* op, const char* why) {
  std::string_view name(op);
  name = name.substr(0, name.find('('));
  name = name.substr(name.find_last_of(": ") + 1);
  throw std::logic_error(std::string(name) + ": " + why);
}

// The trailing operands of an op that replay reads as constants.
size_t NumConstants(OpKind kind) {
  switch (kind) {
    case OpKind::kLayerNorm:
    case OpKind::kLstmReduce:
      return 2;
    case OpKind::kGatherEmbed:
    case OpKind::kGemm:
    case OpKind::kAddBias:
      return 1;
    default:
      return 0;
  }
}

}  // namespace

ScheduleRecorder::ScheduleRecorder(const BatchedGraphStructure& structure,
                                   std::span<const int> opcode_ids)
    : structure_(structure),
      opcode_ids_(opcode_ids),
      nodes_(structure.total_nodes()),
      batch_(structure.num_graphs()) {
  // Buffer rows are told apart by count, so the two must differ.
  if (batch_ < 1 || nodes_ == batch_) {
    throw std::invalid_argument(
        "ScheduleRecorder: the recorded batch needs more nodes than kernels");
  }
}

void ScheduleRecorder::OnParamLeaf(const TapeNode* node,
                                   const Matrix* live_value) {
  values_[node] = Value{.kind = Value::kConstant, .live = live_value};
}

void ScheduleRecorder::OnInputLeaf(const TapeNode* node, InputKind input) {
  values_[node] = Value{.kind = Value::kInput, .input = input};
}

ScheduleRecorder::Value& ScheduleRecorder::Get(const TapeNode* node,
                                               const char* op) {
  const auto it = values_.find(node);
  if (it == values_.end()) {
    Refuse(op, "reads a plain Leaf or another tape's node; batch data enters "
               "a recording through Tape::InputLeaf");
  }
  return it->second;
}

Rows ScheduleRecorder::RowsOf(const TapeNode* node, const char* op) const {
  const int rows = node->value.rows();
  if (rows != nodes_ && rows != batch_) {
    Refuse(op, "rows are neither the node nor the kernel count");
  }
  return rows == nodes_ ? Rows::kNodes : Rows::kBatch;
}

int ScheduleRecorder::NewBuffer(const TapeNode* node, const char* op) {
  schedule_.buffer_rows.push_back(RowsOf(node, op));
  schedule_.buffer_cols.push_back(node->value.cols());
  return static_cast<int>(schedule_.buffer_cols.size()) - 1;
}

void ScheduleRecorder::ReadSource(Instr& ins, const TapeNode* node,
                                  const char* op) {
  Value& v = Get(node, op);
  if (v.kind == Value::kInput && (ins.kind == OpKind::kCopyCols ||
                                  ins.kind == OpKind::kBroadcastSegments)) {
    schedule_.inputs[static_cast<size_t>(v.input)] = {RowsOf(node, op),
                                                      node->value.cols()};
    ins.a = -1;
    ins.input = v.input;
  } else {
    ins.a = Operand(node, op);
  }
}

int ScheduleRecorder::Operand(const TapeNode* node, const char* op) {
  Value& v = Get(node, op);
  if (v.kind == Value::kConstant) {
    Refuse(op, "reads a constant where its replay form reads batch data");
  }
  if (v.kind == Value::kInput && v.buffer < 0) {
    // Other kinds read an input from a buffer: copy it into one, once.
    Instr copy;
    copy.kind = OpKind::kCopyCols;
    copy.dst = NewBuffer(node, op);
    ReadSource(copy, node, op);
    schedule_.instrs.push_back(copy);
    v.buffer = copy.dst;
  }
  return v.buffer;
}

const Matrix* ScheduleRecorder::Constant(const TapeNode* node,
                                         const char* op) {
  Value& v = Get(node, op);
  if (v.kind != Value::kConstant) {
    Refuse(op, "a weight operand comes from the batch, but replay reads "
               "weights as constants");
  }
  if (v.live == nullptr) {
    // Folded: the value the recording computed from parameters alone.
    schedule_.constants.push_back(std::make_unique<const Matrix>(node->value));
    v.live = schedule_.constants.back().get();
  }
  return v.live;
}

void ScheduleRecorder::OnNode(const TapeNode* node,
                              std::span<TapeNode* const> parents,
                              const Replay* replay, const char* op) {
  bool constant = true;
  for (const TapeNode* p : parents) {
    if (Get(p, op).kind != Value::kConstant) constant = false;
  }
  // An op that reads batch structure depends on the batch even when its
  // operands do not.
  if (constant && (replay == nullptr || replay->structure == nullptr)) {
    values_[node] = Value{.kind = Value::kConstant};
    return;
  }
  if (replay == nullptr) {
    Refuse(op, "has no replay form, so a recorded forward cannot apply it to "
               "batch data");
  }
  const GraphStructure& block = *structure_.blocks.front();
  const void* const recorded[] = {structure_.offsets.data(),
                                  opcode_ids_.data(), &block.in_agg,
                                  &block.out_agg,     &block.sym_norm,
                                  &block.sym_mask};
  if (replay->structure != nullptr &&
      std::find(std::begin(recorded), std::end(recorded),
                replay->structure) == std::end(recorded)) {
    Refuse(op, "reads batch structure other than the recorded batch's");
  }

  Instr ins;
  ins.kind = replay->kind;
  ins.scale = replay->scale;
  ins.block_kind = replay->structure == &block.out_agg    ? 1
                   : replay->structure == &block.sym_norm ? 2
                                                          : 0;
  ins.dst = NewBuffer(node, op);
  if (ins.kind == OpKind::kCopyCols) {
    // One copy per concatenated part.
    for (const TapeNode* part : parents) {
      ReadSource(ins, part, op);
      schedule_.instrs.push_back(ins);
      ins.col_off += part->value.cols();
    }
  } else {
    // Batch operands first, constants last (see Replay).
    const size_t reads = parents.size() - NumConstants(ins.kind);
    if (reads > 0) ReadSource(ins, parents[0], op);
    if (reads > 1) ins.b = Operand(parents[1], op);
    if (reads > 2) ins.c = Operand(parents[2], op);
    if (parents.size() > reads) ins.w = Constant(parents[reads], op);
    if (parents.size() > reads + 1) ins.w2 = Constant(parents[reads + 1], op);
    schedule_.instrs.push_back(ins);
  }
  values_[node] = Value{.kind = Value::kBuffer, .buffer = ins.dst};
}

Schedule ScheduleRecorder::Finish(const TapeNode* output) {
  const auto it = values_.find(output);
  if (it == values_.end() || it->second.kind != Value::kBuffer) {
    throw std::logic_error(
        "ScheduleRecorder::Finish: the output does not depend on the batch");
  }
  schedule_.output_buffer = it->second.buffer;
  return std::move(schedule_);
}

}  // namespace tpuperf::nn
