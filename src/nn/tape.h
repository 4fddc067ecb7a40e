/// \file
/// Reverse-mode automatic differentiation on a per-step tape.
///
/// Every forward pass records its intermediate values on a Tape; calling
/// Backward() walks the tape in reverse creation order (which is a valid
/// topological order, since operands are created before results) and
/// accumulates gradients. Parameters enter a tape through ParamLeaf, which
/// routes their gradient into the Parameter's persistent grad buffer.
///
/// ## TapeArena lifecycle
///
/// The tape is cleared after each optimization step. Attaching a TapeArena
/// makes Clear() recycle every node's value/grad heap buffer instead of
/// freeing it, so a long-lived tape reused across minibatches reaches a
/// steady state with (near) zero per-step heap allocations; the node shells
/// themselves (including their parent-vector capacity) are reused in place
/// as well. The intended pattern (both trainers follow it):
///
///   1. construct one `TapeArena` and one `Tape(&arena)` for the whole
///      training run;
///   2. per step: `tape.Clear()` (recycles last step's buffers into the
///      arena) → forward → `Backward` → optimizer step;
///   3. the arena must outlive the tape (the tape's destructor recycles
///      into it); never share one arena between tapes on different
///      threads — it is single-threaded by design.
///
/// Ops must route every tape-lifetime allocation through
/// Tape::NewMatrix/NewMatrixUninit so Clear() can recycle it; stack-local
/// scratch in backward bodies deliberately bypasses the arena.
///
/// ## Stash-leaf rules
///
/// A backward closure must not capture Matrix copies (that defeats the
/// arena and doubles memory traffic). State that the backward needs but
/// that is not an op output — a dropout mask, LayerNorm's xhat, softmax
/// probabilities — is "stashed" as an extra gradless leaf:
///
///   TapeNode* stash = tape.Leaf(std::move(state)).node();
///
/// and the closure captures the `TapeNode*`. Rules: allocate the stashed
/// matrix via tape.NewMatrix* (so its storage is recyclable); create the
/// stash leaf on the same tape as (and no later than) the node whose
/// backward reads it — node pointers stay valid until Clear(), which is
/// exactly the closure's lifetime; leave requires_grad false so Backward
/// skips it.
///
/// ## Record mode
///
/// The tape trains, or, given a ScheduleRecorder, records: it runs one
/// forward and also records its replay schedule (see nn/schedule.h). That
/// is how LearnedCostModel::CompilePlan makes the plans every inference
/// replays. Every op makes one NewNode call carrying both its backward and
/// its Replay (if it has a replay form), so a recorded op and a trained op
/// run the same code. Batch data enters through InputLeaf. Record mode is
/// the only gradient-free mode: no leaf requires grad, so NewNode stores no
/// closure or parent list, and Backward throws.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <source_location>
#include <span>
#include <vector>

#include "nn/matrix.h"
#include "nn/parameters.h"
#include "nn/schedule.h"

namespace tpuperf::nn {

class Tape;

/// Recycles Matrix heap storage across tape clears and optimization steps.
/// Buffers are pooled by capacity and handed back best-fit, so the shape
/// mix may drift between steps (minibatches pack different node counts)
/// without defeating reuse. A request larger than every pooled buffer
/// releases the largest one and allocates afresh, so the pool never holds
/// more buffers than one step acquires and its bytes follow the largest
/// step rather than the sum of every shape seen. Single-threaded by
/// design: tapes acquire/recycle only from the thread that owns them
/// (backward bodies use stack-local scratch, never the arena). See
/// the file comment for the lifecycle contract.
class TapeArena {
 public:
  TapeArena() = default;
  TapeArena(const TapeArena&) = delete;
  TapeArena& operator=(const TapeArena&) = delete;

  /// A zero-filled [rows, cols] matrix, reusing pooled storage when a
  /// buffer with sufficient capacity is available.
  Matrix Acquire(int rows, int cols);
  /// As Acquire but without any fill (Matrix::Uninit: contents
  /// unspecified, on a pool miss too) — for outputs that are fully
  /// overwritten by their op.
  Matrix AcquireUninit(int rows, int cols);
  /// Returns a matrix's heap storage to the pool (or frees it, once the
  /// pool again holds every buffer the arena handed out).
  void Recycle(Matrix&& m);

  // ---- Instrumentation ------------------------------------------------------
  /// Buffer requests served since construction / last ResetStats().
  std::size_t requests() const noexcept { return requests_; }
  /// Requests that had to hit the heap (pool misses). In steady state a
  /// training loop's per-step delta drops to ~0.
  std::size_t heap_allocations() const noexcept { return heap_allocations_; }
  std::size_t recycled() const noexcept {
    return requests_ - heap_allocations_;
  }
  std::size_t pooled_buffers() const noexcept { return pool_.size(); }
  /// Bytes of capacity held by the pooled buffers.
  std::size_t pooled_bytes() const noexcept {
    return pooled_floats_ * sizeof(float);
  }
  void ResetStats() noexcept {
    requests_ = 0;
    heap_allocations_ = 0;
  }

 private:
  // The best-fit pooled buffer for `need` floats, or empty storage on a
  // miss (after releasing the largest pooled buffer).
  Matrix::Storage TakeBestFit(std::size_t need);

  std::multimap<std::size_t, Matrix::Storage> pool_;  // keyed by capacity
  std::size_t pooled_floats_ = 0;  // sum of the pooled capacities
  std::size_t requests_ = 0;
  std::size_t heap_allocations_ = 0;
  std::size_t outstanding_ = 0;  // handed out and not yet recycled
};

/// One recorded op result (or leaf) on the tape. Addresses are stable for
/// the life of the tape (deque storage), so backward closures and stash
/// leaves hold raw `TapeNode*`.
struct TapeNode {
  Matrix value;
  Matrix grad;  ///< allocated lazily (arena-aware, inside Tape::Backward)
  bool requires_grad = false;
  std::vector<TapeNode*> parents;
  /// Propagates this node's grad into its parents' grads.
  std::function<void(TapeNode&)> backward;
};

/// Lightweight non-owning handle to a tape node.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TapeNode* node) : node_(node) {}

  bool defined() const noexcept { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }
  int rows() const { return node_->value.rows(); }
  int cols() const { return node_->value.cols(); }
  float scalar() const { return node_->value.at(0, 0); }
  TapeNode* node() const noexcept { return node_; }

 private:
  TapeNode* node_ = nullptr;
};

/// The recording. One per training step stream; reuse across steps (with
/// Clear()) + a TapeArena is the zero-allocation steady state.
class Tape {
 public:
  /// A training tape, or a record-mode tape when `recorder` is given.
  explicit Tape(TapeArena* arena = nullptr,
                ScheduleRecorder* recorder = nullptr)
      : arena_(arena), recorder_(recorder) {}
  ~Tape() { Clear(); }
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  std::size_t size() const noexcept { return next_; }
  TapeArena* arena() const noexcept { return arena_; }

  /// A zero-filled matrix for an op output or saved backward state —
  /// arena-recycled when an arena is attached, plain-allocated otherwise.
  /// Ops route their allocations through this so Clear() can recycle them.
  Matrix NewMatrix(int rows, int cols) {
    return arena_ != nullptr ? arena_->Acquire(rows, cols)
                             : Matrix(rows, cols);
  }
  /// As NewMatrix but with unspecified contents (Matrix::Uninit) — for op
  /// outputs that overwrite every element (or hand the buffer straight to
  /// MatMulInto, which reshapes it and writes every element).
  Matrix NewMatrixUninit(int rows, int cols) {
    return arena_ != nullptr
               ? arena_->AcquireUninit(rows, cols)
               : Matrix(rows, cols, Matrix::Storage(), Matrix::Uninit{});
  }

  /// A constant (or trainable-by-itself) leaf. With requires_grad=false
  /// this is also the stash-leaf primitive (see the file comment).
  Tensor Leaf(Matrix value, bool requires_grad = false);

  /// A leaf holding batch data; in record mode it is bound to the plan
  /// input `input`.
  Tensor InputLeaf(Matrix value, InputKind input);

  /// A leaf view of a persistent Parameter; backward accumulates into
  /// param.grad.
  Tensor ParamLeaf(Parameter& param);

  /// Records an op result. `backward` may be empty for non-differentiable
  /// ops; it — and the parent list — are dropped when no parent requires
  /// grad (as in record mode). `replay` is the op's replay form, if it has
  /// one; `op` names the op in record mode's errors.
  Tensor NewNode(
      Matrix value, std::span<TapeNode* const> parents,
      std::function<void(TapeNode&)> backward,
      std::optional<Replay> replay = std::nullopt,
      std::source_location op = std::source_location::current());
  Tensor NewNode(
      Matrix value, std::initializer_list<TapeNode*> parents,
      std::function<void(TapeNode&)> backward,
      std::optional<Replay> replay = std::nullopt,
      std::source_location op = std::source_location::current());

  /// Seeds d(loss)=1 and runs all backward closures in reverse order.
  /// `loss` must be a 1x1 tensor recorded on this tape; throws in record
  /// mode.
  void Backward(Tensor loss);

  /// Drops all recorded nodes (recycling their buffers into the arena when
  /// one is attached) while keeping the node shells for reuse, so a tape
  /// reused across steps stops allocating once warm.
  void Clear();

 private:
  TapeNode& AllocNode();

  std::deque<TapeNode> nodes_;  // deque: stable addresses
  std::size_t next_ = 0;        // nodes_[0, next_) are live
  TapeArena* arena_ = nullptr;
  ScheduleRecorder* recorder_ = nullptr;
};

}  // namespace tpuperf::nn
