#include "nn/tape.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace tpuperf::nn {

Matrix::Storage TapeArena::TakeBestFit(std::size_t need) {
  ++requests_;
  ++outstanding_;
  // Best fit: the smallest pooled buffer whose capacity covers the request.
  if (const auto it = pool_.lower_bound(need); it != pool_.end()) {
    Matrix::Storage storage = std::move(it->second);
    pooled_floats_ -= it->first;
    pool_.erase(it);
    return storage;
  }
  // Miss: the request outgrows every pooled buffer, so the largest one is
  // released and a new buffer takes its place. The pool thus never holds
  // more buffers than one step has outstanding at once.
  ++heap_allocations_;
  if (!pool_.empty()) {
    const auto largest = std::prev(pool_.end());
    pooled_floats_ -= largest->first;
    pool_.erase(largest);
  }
  return {};
}

Matrix TapeArena::Acquire(int rows, int cols) {
  const std::size_t need =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (need == 0) return Matrix(rows, cols);
  return Matrix(rows, cols, TakeBestFit(need));
}

Matrix TapeArena::AcquireUninit(int rows, int cols) {
  const std::size_t need =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (need == 0) return Matrix(rows, cols);
  return Matrix(rows, cols, TakeBestFit(need), Matrix::Uninit{});
}

void TapeArena::Recycle(Matrix&& m) {
  Matrix::Storage storage = m.TakeStorage();
  // Pool at most as many buffers as the arena handed out: a tape also holds
  // leaves allocated elsewhere, and pooling those too would grow the pool
  // on every step.
  if (storage.capacity() == 0 || outstanding_ == 0) return;
  --outstanding_;
  pooled_floats_ += storage.capacity();
  pool_.emplace(storage.capacity(), std::move(storage));
}

TapeNode& Tape::AllocNode() {
  if (next_ < nodes_.size()) {
    // Reuse a shell left by Clear(): its matrices were already recycled and
    // its closure dropped; parents keeps its capacity.
    TapeNode& node = nodes_[next_++];
    node.requires_grad = false;
    return node;
  }
  nodes_.emplace_back();
  ++next_;
  return nodes_.back();
}

void Tape::Clear() {
  for (std::size_t i = 0; i < next_; ++i) {
    TapeNode& node = nodes_[i];
    if (arena_ != nullptr) {
      arena_->Recycle(std::move(node.value));
      arena_->Recycle(std::move(node.grad));
    } else {
      node.value = Matrix();
      node.grad = Matrix();
    }
    node.parents.clear();     // keeps capacity for the next step
    node.backward = nullptr;  // frees captured state promptly
    node.requires_grad = false;
  }
  next_ = 0;
}

Tensor Tape::Leaf(Matrix value, bool requires_grad) {
  TapeNode& node = AllocNode();
  node.value = std::move(value);
  node.requires_grad = requires_grad && recorder_ == nullptr;
  return Tensor(&node);
}

Tensor Tape::InputLeaf(Matrix value, InputKind input) {
  Tensor leaf = Leaf(std::move(value));
  if (recorder_ != nullptr) recorder_->OnInputLeaf(leaf.node(), input);
  return leaf;
}

Tensor Tape::ParamLeaf(Parameter& param) {
  TapeNode& node = AllocNode();
  // Snapshot through the arena so the copy's buffer recycles across steps.
  Matrix snapshot = NewMatrixUninit(param.value.rows(), param.value.cols());
  std::copy(param.value.flat().begin(), param.value.flat().end(),
            snapshot.data());
  node.value = std::move(snapshot);
  node.requires_grad = recorder_ == nullptr;
  if (node.requires_grad) {
    Parameter* p = &param;
    node.backward = [p](TapeNode& self) { AccumulateInto(p->grad, self.grad); };
  }
  if (recorder_ != nullptr) recorder_->OnParamLeaf(&node, &param.value);
  return Tensor(&node);
}

Tensor Tape::NewNode(Matrix value, std::span<TapeNode* const> parents,
                     std::function<void(TapeNode&)> backward,
                     std::optional<Replay> replay, std::source_location op) {
  TapeNode& node = AllocNode();
  node.value = std::move(value);
  // Record mode (where no leaf requires grad) and dead subgraphs skip the
  // parent-list copy and the closure entirely.
  for (const TapeNode* p : parents) {
    if (p != nullptr && p->requires_grad) {
      node.requires_grad = true;
      node.parents.assign(parents.begin(), parents.end());
      node.backward = std::move(backward);
      break;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->OnNode(&node, parents, replay ? &*replay : nullptr,
                      op.function_name());
  }
  return Tensor(&node);
}

Tensor Tape::NewNode(Matrix value, std::initializer_list<TapeNode*> parents,
                     std::function<void(TapeNode&)> backward,
                     std::optional<Replay> replay, std::source_location op) {
  return NewNode(std::move(value),
                 std::span<TapeNode* const>(parents.begin(), parents.size()),
                 std::move(backward), replay, op);
}

void Tape::Backward(Tensor loss) {
  if (recorder_ != nullptr) {
    throw std::logic_error("Backward() on a record-mode tape");
  }
  if (!loss.defined() || loss.rows() != 1 || loss.cols() != 1) {
    throw std::invalid_argument("Backward() expects a defined 1x1 loss");
  }
  // Arena-aware EnsureGrad: recycled buffers arrive zero-filled, matching
  // the lazily-allocated-grad semantics exactly.
  const auto ensure_grad = [this](TapeNode& node) {
    if (node.grad.rows() != node.value.rows() ||
        node.grad.cols() != node.value.cols()) {
      Matrix stale = std::move(node.grad);
      node.grad = NewMatrix(node.value.rows(), node.value.cols());
      if (arena_ != nullptr) arena_->Recycle(std::move(stale));
    }
  };
  TapeNode* loss_node = loss.node();
  ensure_grad(*loss_node);
  loss_node->grad.at(0, 0) = 1.0f;

  for (std::size_t i = next_; i-- > 0;) {
    TapeNode& node = nodes_[i];
    if (!node.requires_grad || !node.backward) continue;
    if (node.grad.empty()) continue;  // no gradient reached this node
    for (TapeNode* parent : node.parents) {
      if (parent != nullptr && parent->requires_grad) ensure_grad(*parent);
    }
    node.backward(node);
  }
}

}  // namespace tpuperf::nn
