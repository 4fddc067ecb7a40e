// The replay schedule a tape records: the format the compiled-plan executor
// (src/plan) replays, filled by the tape ops themselves.
//
// A Tape given a ScheduleRecorder runs its forward as usual and, alongside,
// classifies every node it creates:
//   - a parameter leaf (Tape::ParamLeaf) is a constant read through a live
//     pointer to the Parameter's value;
//   - a node computed from constants alone (the LSTM's fused gate weight) is
//     folded: its recorded value becomes a constant owned by the schedule;
//   - a batch input (Tape::InputLeaf) is bound to a plan input by kind;
//   - any other node depends on the batch, and the op that made it appends
//     its Instr, writing a fresh logical buffer whose row count (nodes or
//     kernels) is the one the recording saw.
// An op with no replay form (it passes no Replay to Tape::NewNode) may only
// fold: on batch data it throws std::logic_error naming the op, so a change
// to the forward fails when the plan is compiled instead of drifting.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "nn/matrix.h"

namespace tpuperf::nn {

struct TapeNode;
struct BatchedGraphStructure;

// Symbolic row count of a logical buffer, resolved per replay against the
// request's (kernel, node) counts.
enum class Rows { kBatch, kNodes };

// The batch matrices a plan replays over (see plan::PlanInput).
enum class InputKind { kNodeFeatures, kStaticPerf, kTileFeatures };
inline constexpr int kNumInputKinds = 3;

enum class OpKind {
  kGatherEmbed,        // dst[:, col_off:+w.cols] = w.row(opcode_ids[i])
  kBroadcastSegments,  // dst[:, col_off:] = segment b's row of a (or input)
  kCopyCols,           // dst[:, col_off:+cols] = buffer a (or input)
  kGemm,               // dst = a @ w [+ w2 row-broadcast] [then ReLU]
  kAddBias,            // dst = a + w row-broadcast
  kRelu,               // dst = max(a, 0)
  kBlockAgg,           // dst = blockdiag(adjacency blocks) @ a
  kRowL2Norm,          // dst = row-L2-normalized a (eps in scale)
  kLayerNorm,          // dst = layernorm(a) * w + w2 (eps in scale)
  kAdd,                // dst = a + b
  kSegmentSum,         // dst[b] = sum over segment b of a
  kSegmentMean,        // dst[b] = mean over segment b of a
  kSegmentMax,         // dst[b] = colwise max over segment b of a
  kSelfAttention,      // dst = blockdiag softmax(a b^T * scale) @ c
  kGatAttention,       // dst = blockdiag GAT attention (s=a, d=b, wh=c)
  kLstmReduce,         // dst = final LSTM hidden states over xw = a,
                       //       recurrent weight w, bias w2
};

// One schedule entry. `dst`/`a`/`b`/`c` are logical buffer ids; a copy or
// broadcast with a < 0 reads the batch input `input` instead. `w`/`w2` are
// constants: a live Parameter value (the model must outlive the plan) or a
// value the schedule owns.
struct Instr {
  OpKind kind = OpKind::kAdd;
  int dst = -1, a = -1, b = -1, c = -1;
  int col_off = 0;  // column offset of the write (gather / copy kinds)
  const Matrix* w = nullptr;
  const Matrix* w2 = nullptr;
  float scale = 0.0f;  // eps / attention scale / LeakyReLU alpha
  bool relu = false;   // kGemm epilogue
  int block_kind = 0;  // kBlockAgg: 0 in_agg, 1 out_agg, 2 sym_norm
  InputKind input = InputKind::kNodeFeatures;
  bool first_write = false;  // set by the plan's liveness pass
};

struct InputShape {
  Rows rows = Rows::kNodes;
  int cols = 0;  // 0: the schedule never reads this input
};

struct Schedule {
  std::vector<Instr> instrs;
  std::vector<Rows> buffer_rows;  // per logical buffer
  std::vector<int> buffer_cols;   // per logical buffer
  std::array<InputShape, kNumInputKinds> inputs{};
  int output_buffer = -1;
  // Folded constants the instructions point into.
  std::vector<std::unique_ptr<const Matrix>> constants;
};

// What a replayable tape op tells the recorder besides its operands (the
// node's parents, in the order the OpKind comment names them, constants
// last).
struct Replay {
  OpKind kind;
  float scale = 0.0f;
  // The batch structure the op read outside its operands (opcode ids,
  // segment offsets, the first adjacency block or mask), checked against the
  // recorded batch.
  const void* structure = nullptr;
};

// Record-mode state of one tape forward over one batch (see the file
// comment). The batch's structure must outlive the recorder.
class ScheduleRecorder {
 public:
  ScheduleRecorder(const BatchedGraphStructure& structure,
                   std::span<const int> opcode_ids);

  // Tape hooks. `op` is the signature of the op that made the node
  // (std::source_location::function_name); errors name the op from it.
  void OnParamLeaf(const TapeNode* node, const Matrix* live_value);
  void OnInputLeaf(const TapeNode* node, InputKind input);
  void OnNode(const TapeNode* node, std::span<TapeNode* const> parents,
              const Replay* replay, const char* op);

  // The schedule whose output buffer holds `output`'s value.
  Schedule Finish(const TapeNode* output);

 private:
  // How a recorded node's value is obtained at replay.
  struct Value {
    enum Kind { kConstant, kInput, kBuffer } kind = kConstant;
    const Matrix* live = nullptr;  // kConstant: a parameter's value, or
                                   // the folded copy once read
    InputKind input = InputKind::kNodeFeatures;
    int buffer = -1;  // kBuffer (or a materialized kInput)
  };

  Value& Get(const TapeNode* node, const char* op);
  Rows RowsOf(const TapeNode* node, const char* op) const;
  int NewBuffer(const TapeNode* node, const char* op);
  // Sets ins.a to `node`'s buffer; copies and broadcasts read a batch input
  // in place instead.
  void ReadSource(Instr& ins, const TapeNode* node, const char* op);
  int Operand(const TapeNode* node, const char* op);
  const Matrix* Constant(const TapeNode* node, const char* op);

  const BatchedGraphStructure& structure_;
  std::span<const int> opcode_ids_;
  int nodes_ = 0;
  int batch_ = 0;
  std::unordered_map<const TapeNode*, Value> values_;
  Schedule schedule_;
};

}  // namespace tpuperf::nn
