#pragma once
// Minimal dense float tensor with reverse-mode automatic differentiation —
// the training substrate for the surrogate and diffusion models (the paper
// trains small PyTorch models; everything here is CPU float32).
//
// Semantics: Tensor is a cheap shared handle to a node in a dynamically
// built compute graph. Ops (see ops.hpp) allocate fresh output tensors and
// record a backward closure. `backward(root)` runs reverse topological
// accumulation from a scalar root.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clo/util/aligned.hpp"
#include "clo/util/rng.hpp"

namespace clo::nn {

class Tensor;

/// Tensor storage: 64-byte-aligned so the SIMD kernels (kernel.hpp) start
/// every data/grad buffer on a full cache line / zmm vector boundary.
using FloatBuf = util::AlignedFloats;

struct TensorImpl {
  std::vector<int> shape;
  FloatBuf data;
  FloatBuf grad;   ///< same size as data once touched
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void(TensorImpl&)> backward_fn;  ///< pushes grad to parents
  /// The backward() call that last visited this node (interior nodes only;
  /// 0 = never).
  std::uint64_t visit = 0;

  std::size_t numel() const { return data.size(); }
  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  /// Uninitialized-to-zero tensor of `shape`.
  static Tensor zeros(std::vector<int> shape, bool requires_grad = false);
  static Tensor full(std::vector<int> shape, float value,
                     bool requires_grad = false);
  /// Gaussian init scaled by `stddev`.
  static Tensor randn(std::vector<int> shape, clo::Rng& rng, float stddev,
                      bool requires_grad = false);
  static Tensor from_data(std::vector<int> shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor scalar(float value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int>& shape() const { return impl_->shape; }
  int dim(int i) const { return impl_->shape[i]; }
  int ndim() const { return static_cast<int>(impl_->shape.size()); }
  std::size_t numel() const { return impl_->numel(); }

  FloatBuf& data() { return impl_->data; }
  const FloatBuf& data() const { return impl_->data; }
  FloatBuf& grad() { impl_->ensure_grad(); return impl_->grad; }

  float item() const { return impl_->data.at(0); }

  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool v) { impl_->requires_grad = v; }

  void zero_grad() {
    impl_->grad.assign(impl_->data.size(), 0.0f);
  }

  std::shared_ptr<TensorImpl> impl() const { return impl_; }

  std::string shape_str() const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// Reverse-mode accumulation from a scalar `root` (numel() == 1).
/// Grad buffers of reachable leaves (tensors without a backward closure:
/// parameters, optimizer inputs) are accumulated into; callers zero them
/// between steps via the optimizer. Interior grads, the root's included,
/// do not survive the call: each is freed right after its closure has run.
/// The walk visits interior nodes only and writes nothing to a leaf it
/// does not accumulate into, so frozen weights shared by concurrent passes
/// (see GradFreeze) are only ever read.
void backward(const Tensor& root);

/// Detached copy: same data, no graph history.
Tensor detach(const Tensor& t);

/// Whether ops currently record the autograd graph on this thread (true
/// unless a NoGradGuard is alive). Checked by every op in ops.cpp.
bool grad_enabled();

/// RAII inference-mode guard (thread-local, nestable): while alive, ops
/// compute data only — no parents, no backward closures — so pure
/// inference (denoiser evaluations, no-grad objective queries) allocates
/// nothing beyond the output buffers and never retains the graph.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool saved_;
};

/// RAII inference guard: clears requires_grad on the given (parameter)
/// tensors and restores the previous flags on destruction. While frozen,
/// backward() never touches the parameters' grad buffers, which makes
/// concurrent forward/backward passes sharing the same weights safe —
/// every other node of each pass's graph is private to its thread. Input
/// gradients are unaffected bit for bit: the skipped accumulations only
/// ever fed the frozen leaves themselves.
class GradFreeze {
 public:
  explicit GradFreeze(const std::vector<Tensor>& params);
  ~GradFreeze();
  GradFreeze(const GradFreeze&) = delete;
  GradFreeze& operator=(const GradFreeze&) = delete;

 private:
  std::vector<std::shared_ptr<TensorImpl>> impls_;
  std::vector<bool> saved_;
};

}  // namespace clo::nn
