#include "clo/nn/tensor.hpp"

#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace clo::nn {
namespace {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("tensor dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

}  // namespace

Tensor Tensor::zeros(std::vector<int> shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(shape_numel(shape), 0.0f);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::full(std::vector<int> shape, float value, bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.data()) v = value;
  return t;
}

Tensor Tensor::randn(std::vector<int> shape, clo::Rng& rng, float stddev,
                     bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  for (auto& v : t.data()) {
    v = static_cast<float>(rng.next_gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::from_data(std::vector<int> shape, std::vector<float> data,
                         bool requires_grad) {
  if (shape_numel(shape) != data.size()) {
    throw std::invalid_argument("from_data: shape/data size mismatch");
  }
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data.assign(data.begin(), data.end());
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_data({1}, {value}, requires_grad);
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i) os << ',';
    os << impl_->shape[i];
  }
  os << ']';
  return os.str();
}

void backward(const Tensor& root) {
  if (root.numel() != 1) {
    throw std::invalid_argument("backward: root must be scalar");
  }
  // Post-order over the interior nodes (those with a backward closure).
  // Leaves have nothing to run, so the walk never enters them; a node is
  // stamped with this call's id when first reached, so one shared by
  // several consumers is ordered once. The interior order is the one a
  // walk over every node gives, so grads accumulate in the same order.
  static std::atomic<std::uint64_t> calls{0};
  const std::uint64_t stamp = calls.fetch_add(1, std::memory_order_relaxed) + 1;
  TensorImpl* top = root.impl().get();
  std::vector<TensorImpl*> order;
  if (top->backward_fn) {
    std::vector<std::pair<TensorImpl*, std::size_t>> stack;
    top->visit = stamp;
    stack.emplace_back(top, 0);
    while (!stack.empty()) {
      auto& [node, next_parent] = stack.back();
      if (next_parent < node->parents.size()) {
        TensorImpl* parent = node->parents[next_parent++].get();
        if (parent->backward_fn && parent->visit != stamp) {
          parent->visit = stamp;
          stack.emplace_back(parent, 0);
        }
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  top->ensure_grad();
  top->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->grad.size() == node->data.size()) {
      node->backward_fn(*node);
      // Every consumer has already pushed into this interior grad, so it
      // is dead once pushed on: free it while the backward walks on.
      FloatBuf().swap(node->grad);
    }
  }
}

Tensor detach(const Tensor& t) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = t.shape();
  impl->data = t.data();
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

namespace {
thread_local bool g_grad_enabled = true;
}  // namespace

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : saved_(g_grad_enabled) { g_grad_enabled = false; }

NoGradGuard::~NoGradGuard() { g_grad_enabled = saved_; }

GradFreeze::GradFreeze(const std::vector<Tensor>& params) {
  impls_.reserve(params.size());
  saved_.reserve(params.size());
  for (const auto& p : params) {
    impls_.push_back(p.impl());
    saved_.push_back(p.impl()->requires_grad);
    p.impl()->requires_grad = false;
  }
}

GradFreeze::~GradFreeze() {
  for (std::size_t i = 0; i < impls_.size(); ++i) {
    impls_[i]->requires_grad = saved_[i];
  }
}

}  // namespace clo::nn
