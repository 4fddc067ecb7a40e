// Opcode vocabulary for the HLO-like tensor IR.
//
// A node in a computation graph represents one tensor operation (paper §2):
// it consumes one or more input tensors and produces a single output tensor.
// The opcode set below mirrors the XLA HLO instructions that appear in the
// programs the paper evaluates (dense/conv workloads, seq2seq, recommendation).
#pragma once

#include <cstdint>
#include <string_view>

namespace tpuperf::ir {

enum class OpCode : std::uint8_t {
  // Data sources / plumbing.
  kParameter = 0,
  kConstant,
  kIota,
  kCopy,
  kConvert,
  kBitcast,

  // Shape manipulation.
  kBroadcast,
  kReshape,
  kTranspose,
  kSlice,
  kDynamicSlice,
  kDynamicUpdateSlice,
  kConcatenate,
  kPad,
  kReverse,
  kGather,
  kScatter,

  // Elementwise binary.
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kMaximum,
  kMinimum,
  kPower,
  kRemainder,
  kCompare,
  kAnd,
  kOr,

  // Elementwise unary.
  kNot,
  kNegate,
  kAbs,
  kSign,
  kExp,
  kLog,
  kTanh,
  kLogistic,
  kRsqrt,
  kSqrt,
  kFloor,
  kCeil,

  // Ternary.
  kSelect,
  kClamp,

  // Heavy compute.
  kDot,
  kConvolution,

  // Reductions & windows.
  kReduce,
  kReduceWindow,
  kSoftmax,
  kBatchNormInference,

  kOpCodeCount,  // Sentinel; keep last.
};

inline constexpr int kNumOpCodes = static_cast<int>(OpCode::kOpCodeCount);

// Human-readable lowercase mnemonic, e.g. "convolution".
std::string_view ToString(OpCode op) noexcept;

// Classification helpers used by the fusion pass, simulator and featurizer.
bool IsElementwiseUnary(OpCode op) noexcept;
bool IsElementwiseBinary(OpCode op) noexcept;
bool IsElementwise(OpCode op) noexcept;  // unary, binary or ternary elementwise
// Transcendental / special-function-unit ops (exp, tanh, ...). These execute
// on a dedicated serial unit on the simulated TPU (paper §3.1 feature (4)).
bool IsTranscendental(OpCode op) noexcept;
// Ops that execute on the systolic MXU (matrix units).
bool UsesMatrixUnit(OpCode op) noexcept;
// Pure data-movement / relabeling ops with ~zero compute cost.
bool IsDataMovement(OpCode op) noexcept;
// Number of operands the opcode expects (-1 for variadic).
int ExpectedOperandCount(OpCode op) noexcept;

}  // namespace tpuperf::ir
