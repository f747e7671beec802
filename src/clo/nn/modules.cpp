#include "clo/nn/modules.hpp"

#include <cmath>

namespace clo::nn {

Linear::Linear(int in_features, int out_features, clo::Rng& rng)
    : weight_(Tensor::randn({in_features, out_features}, rng,
                            std::sqrt(2.0f / static_cast<float>(in_features)),
                            true)),
      bias_(Tensor::zeros({out_features}, true)) {}

Tensor Linear::forward(const Tensor& x) {
  return add_bias(matmul(x, weight_), bias_);
}

Mlp::Mlp(int in_features, int hidden, int out_features, clo::Rng& rng)
    : fc1_(in_features, hidden, rng), fc2_(hidden, out_features, rng) {}

Tensor Mlp::forward(const Tensor& x) {
  return fc2_.forward(relu(fc1_.forward(x)));
}

std::vector<Tensor> Mlp::parameters() {
  auto p = fc1_.parameters();
  auto q = fc2_.parameters();
  p.insert(p.end(), q.begin(), q.end());
  return p;
}

Lstm::Lstm(int in_features, int hidden, clo::Rng& rng)
    : hidden_(hidden),
      wx_(Tensor::randn({in_features, 4 * hidden}, rng,
                        std::sqrt(1.0f / static_cast<float>(in_features)),
                        true)),
      wh_(Tensor::randn({hidden, 4 * hidden}, rng,
                        std::sqrt(1.0f / static_cast<float>(hidden)), true)),
      bias_(Tensor::zeros({4 * hidden}, true)) {}

std::vector<Tensor> Lstm::forward(const std::vector<Tensor>& steps) {
  const int batch = steps.at(0).dim(0);
  Tensor h = Tensor::zeros({batch, hidden_});
  Tensor c = Tensor::zeros({batch, hidden_});
  std::vector<Tensor> outputs;
  outputs.reserve(steps.size());
  for (const Tensor& x : steps) {
    Tensor gates = add_bias(add(matmul(x, wx_), matmul(h, wh_)), bias_);
    Tensor i = sigmoid(slice_cols(gates, 0, hidden_));
    Tensor f = sigmoid(slice_cols(gates, hidden_, 2 * hidden_));
    Tensor g = tanh_op(slice_cols(gates, 2 * hidden_, 3 * hidden_));
    Tensor o = sigmoid(slice_cols(gates, 3 * hidden_, 4 * hidden_));
    c = add(mul(f, c), mul(i, g));
    h = mul(o, tanh_op(c));
    outputs.push_back(h);
  }
  return outputs;
}

AttentionPool::AttentionPool(int features, int attn_dim, clo::Rng& rng)
    : w_(Tensor::randn({features, attn_dim}, rng,
                       std::sqrt(1.0f / static_cast<float>(features)), true)),
      v_(Tensor::randn({attn_dim, 1}, rng,
                       std::sqrt(1.0f / static_cast<float>(attn_dim)), true)),
      b_(Tensor::zeros({attn_dim}, true)) {}

Tensor AttentionPool::forward(const std::vector<Tensor>& steps) {
  // scores[:, t] = v . tanh(W h_t + b)
  std::vector<Tensor> score_cols;  // T x [batch, 1]
  score_cols.reserve(steps.size());
  for (const Tensor& h : steps) {
    score_cols.push_back(matmul(tanh_op(add_bias(matmul(h, w_), b_)), v_));
  }
  Tensor alpha = softmax_rows(concat_cols(score_cols));  // [B,T]
  Tensor pooled;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    Tensor at = slice_cols(alpha, static_cast<int>(t), static_cast<int>(t) + 1);
    Tensor term = scale_rows(steps[t], at);  // alpha[:, t] * h_t
    pooled = pooled.defined() ? add(pooled, term) : term;
  }
  return pooled;
}

Conv1dLayer::Conv1dLayer(int in_channels, int out_channels, int kernel,
                         clo::Rng& rng)
    : weight_(Tensor::randn(
          {out_channels, in_channels, kernel}, rng,
          std::sqrt(2.0f / static_cast<float>(in_channels * kernel)), true)),
      bias_(Tensor::zeros({out_channels}, true)) {}

Tensor Conv1dLayer::forward(const Tensor& x) {
  return conv1d(x, weight_, bias_);
}

Tensor timestep_embedding(const std::vector<int>& t, int dim) {
  const int half = dim / 2;
  Tensor out = Tensor::zeros({static_cast<int>(t.size()), dim});
  // The frequency table depends only on i — hoist the exp/log out of the
  // batch loop so an [R]-restart batch doesn't recompute it R times.
  // Same double-precision expression, so values are unchanged.
  std::vector<double> freqs(static_cast<std::size_t>(half));
  for (int i = 0; i < half; ++i) {
    freqs[i] = std::exp(-std::log(10000.0) * static_cast<double>(i) / half);
  }
  for (std::size_t b = 0; b < t.size(); ++b) {
    for (int i = 0; i < half; ++i) {
      const double arg = static_cast<double>(t[b]) * freqs[i];
      out.data()[b * dim + i] = static_cast<float>(std::sin(arg));
      out.data()[b * dim + half + i] = static_cast<float>(std::cos(arg));
    }
  }
  return out;
}

}  // namespace clo::nn
