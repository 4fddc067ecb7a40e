#include "ir/opcode.h"

#include <array>

namespace tpuperf::ir {
namespace {

constexpr std::array<std::string_view, kNumOpCodes> kNames = {
    "parameter",
    "constant",
    "iota",
    "copy",
    "convert",
    "bitcast",
    "broadcast",
    "reshape",
    "transpose",
    "slice",
    "dynamic-slice",
    "dynamic-update-slice",
    "concatenate",
    "pad",
    "reverse",
    "gather",
    "scatter",
    "add",
    "subtract",
    "multiply",
    "divide",
    "maximum",
    "minimum",
    "power",
    "remainder",
    "compare",
    "and",
    "or",
    "not",
    "negate",
    "abs",
    "sign",
    "exp",
    "log",
    "tanh",
    "logistic",
    "rsqrt",
    "sqrt",
    "floor",
    "ceil",
    "select",
    "clamp",
    "dot",
    "convolution",
    "reduce",
    "reduce-window",
    "softmax",
    "batch-norm-inference",
};

}  // namespace

std::string_view ToString(OpCode op) noexcept {
  const auto idx = static_cast<std::size_t>(op);
  if (idx >= kNames.size()) return "invalid";
  return kNames[idx];
}

bool IsElementwiseUnary(OpCode op) noexcept {
  switch (op) {
    case OpCode::kNot:
    case OpCode::kNegate:
    case OpCode::kAbs:
    case OpCode::kSign:
    case OpCode::kExp:
    case OpCode::kLog:
    case OpCode::kTanh:
    case OpCode::kLogistic:
    case OpCode::kRsqrt:
    case OpCode::kSqrt:
    case OpCode::kFloor:
    case OpCode::kCeil:
    case OpCode::kConvert:
    case OpCode::kCopy:
      return true;
    default:
      return false;
  }
}

bool IsElementwiseBinary(OpCode op) noexcept {
  switch (op) {
    case OpCode::kAdd:
    case OpCode::kSubtract:
    case OpCode::kMultiply:
    case OpCode::kDivide:
    case OpCode::kMaximum:
    case OpCode::kMinimum:
    case OpCode::kPower:
    case OpCode::kRemainder:
    case OpCode::kCompare:
    case OpCode::kAnd:
    case OpCode::kOr:
      return true;
    default:
      return false;
  }
}

bool IsElementwise(OpCode op) noexcept {
  return IsElementwiseUnary(op) || IsElementwiseBinary(op) ||
         op == OpCode::kSelect || op == OpCode::kClamp;
}

bool IsTranscendental(OpCode op) noexcept {
  switch (op) {
    case OpCode::kExp:
    case OpCode::kLog:
    case OpCode::kTanh:
    case OpCode::kLogistic:
    case OpCode::kRsqrt:
    case OpCode::kSqrt:
    case OpCode::kPower:
      return true;
    default:
      return false;
  }
}

bool UsesMatrixUnit(OpCode op) noexcept {
  return op == OpCode::kDot || op == OpCode::kConvolution;
}

bool IsDataMovement(OpCode op) noexcept {
  switch (op) {
    case OpCode::kParameter:
    case OpCode::kConstant:
    case OpCode::kIota:
    case OpCode::kBitcast:
    case OpCode::kBroadcast:
    case OpCode::kReshape:
    case OpCode::kTranspose:
    case OpCode::kSlice:
    case OpCode::kDynamicSlice:
    case OpCode::kDynamicUpdateSlice:
    case OpCode::kConcatenate:
    case OpCode::kPad:
    case OpCode::kReverse:
    case OpCode::kGather:
    case OpCode::kScatter:
      return true;
    default:
      return false;
  }
}

int ExpectedOperandCount(OpCode op) noexcept {
  if (IsElementwiseUnary(op)) return 1;
  if (IsElementwiseBinary(op)) return 2;
  switch (op) {
    case OpCode::kParameter:
    case OpCode::kConstant:
    case OpCode::kIota:
      return 0;
    case OpCode::kBroadcast:
    case OpCode::kReshape:
    case OpCode::kTranspose:
    case OpCode::kSlice:
    case OpCode::kPad:
    case OpCode::kReverse:
    case OpCode::kReduce:
    case OpCode::kReduceWindow:
    case OpCode::kSoftmax:
    case OpCode::kBitcast:
      return 1;
    case OpCode::kDot:
    case OpCode::kConvolution:
    case OpCode::kGather:
    case OpCode::kDynamicSlice:
      return 2;
    case OpCode::kSelect:
    case OpCode::kClamp:
    case OpCode::kScatter:
    case OpCode::kDynamicUpdateSlice:
      return 3;
    case OpCode::kBatchNormInference:
      return 3;
    case OpCode::kConcatenate:
      return -1;  // variadic
    default:
      return -1;
  }
}

}  // namespace tpuperf::ir
