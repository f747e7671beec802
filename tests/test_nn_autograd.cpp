#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "clo/nn/kernel.hpp"
#include "clo/nn/ops.hpp"
#include "clo/nn/tensor.hpp"
#include "clo/util/rng.hpp"

namespace {

using namespace clo::nn;

/// Numerical gradient check: builds the graph via `fn` (must return a
/// scalar), compares autograd gradients of `input` against central
/// differences.
void grad_check(Tensor input,
                const std::function<Tensor(const Tensor&)>& fn,
                float tolerance = 2e-2f) {
  Tensor out = fn(input);
  ASSERT_EQ(out.numel(), 1u);
  backward(out);
  const auto analytic = input.grad();
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float saved = input.data()[i];
    input.data()[i] = saved + eps;
    const float up = fn(input).item();
    input.data()[i] = saved - eps;
    const float down = fn(input).item();
    input.data()[i] = saved;
    const float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::abs(numeric)))
        << "component " << i;
  }
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed,
                     float scale = 1.0f) {
  clo::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, scale, true);
}

TEST(Autograd, AddSubMul) {
  const Tensor b = random_tensor({2, 3}, 7);
  grad_check(random_tensor({2, 3}, 1), [&](const Tensor& x) {
    return sum_all(mul(add(x, b), sub(x, b)));
  });
}

TEST(Autograd, ScaleNeg) {
  grad_check(random_tensor({4}, 2), [](const Tensor& x) {
    return sum_all(neg(scale(x, 2.5f)));
  });
}

TEST(Autograd, AddBias) {
  const Tensor x = random_tensor({3, 4}, 3);
  Tensor bias = random_tensor({4}, 4);
  // Check gradient w.r.t. the bias.
  grad_check(bias, [&](const Tensor& b) { return sum_all(add_bias(x, b)); });
}

TEST(Autograd, MatmulBothSides) {
  const Tensor w = random_tensor({3, 2}, 5);
  grad_check(random_tensor({4, 3}, 6),
             [&](const Tensor& x) { return sum_all(matmul(x, w)); });
  const Tensor x2 = random_tensor({4, 3}, 8);
  grad_check(random_tensor({3, 2}, 9),
             [&](const Tensor& w2) { return sum_all(matmul(x2, w2)); });
}

TEST(Autograd, MatmulTransposeB) {
  const Tensor x = random_tensor({2, 3}, 10);
  grad_check(random_tensor({4, 3}, 11), [&](const Tensor& w) {
    return sum_all(matmul(x, w, /*transpose_b=*/true));
  });
}

TEST(Autograd, Activations) {
  grad_check(random_tensor({2, 5}, 12),
             [](const Tensor& x) { return sum_all(sigmoid(x)); });
  grad_check(random_tensor({2, 5}, 13),
             [](const Tensor& x) { return sum_all(tanh_op(x)); });
  grad_check(random_tensor({2, 5}, 14),
             [](const Tensor& x) { return sum_all(silu(x)); });
  // ReLU away from the kink.
  Tensor x = random_tensor({10}, 15);
  for (auto& v : x.data()) v = v > 0 ? v + 0.5f : v - 0.5f;
  grad_check(x, [](const Tensor& t) { return sum_all(relu(t)); });
}

TEST(Autograd, SoftmaxRows) {
  grad_check(random_tensor({3, 4}, 16), [](const Tensor& x) {
    // weighted sum of softmax outputs, nontrivial Jacobian use
    Tensor s = softmax_rows(x);
    Tensor w = Tensor::from_data({3, 4}, {1, 2, 3, 4, 4, 3, 2, 1, 0, 1, 0, 1});
    return sum_all(mul(s, w));
  });
}

TEST(Autograd, MseLoss) {
  const Tensor target = random_tensor({3, 2}, 17);
  grad_check(random_tensor({3, 2}, 18),
             [&](const Tensor& x) { return mse_loss(x, target); });
}

TEST(Autograd, MeanRowsAndReshape) {
  grad_check(random_tensor({4, 3}, 19), [](const Tensor& x) {
    return sum_all(mean_rows(reshape(x, {2, 6})));
  });
}

TEST(Autograd, ConcatSliceCols) {
  const Tensor other = random_tensor({2, 2}, 20);
  grad_check(random_tensor({2, 3}, 21), [&](const Tensor& x) {
    Tensor cat = concat_cols({x, other});
    return sum_all(mul(slice_cols(cat, 1, 4), slice_cols(cat, 0, 3)));
  });
}

TEST(Autograd, GatherRowsWithRepeats) {
  grad_check(random_tensor({4, 3}, 22), [](const Tensor& x) {
    return sum_all(gather_rows(x, {0, 2, 2, 3, 0}));
  });
}

TEST(Autograd, LayerNorm) {
  const Tensor gain = random_tensor({5}, 23);
  const Tensor bias = random_tensor({5}, 24);
  grad_check(
      random_tensor({3, 5}, 25),
      [&](const Tensor& x) {
        Tensor w = Tensor::from_data(
            {3, 5}, std::vector<float>(15, 0.3f));
        return sum_all(mul(layer_norm(x, gain, bias), w));
      },
      5e-2f);
}

TEST(Autograd, Conv1d) {
  const Tensor w = random_tensor({3, 2, 3}, 26, 0.5f);
  const Tensor b = random_tensor({3}, 27);
  grad_check(random_tensor({2, 2, 6}, 28),
             [&](const Tensor& x) { return sum_all(conv1d(x, w, b)); });
  const Tensor x2 = random_tensor({2, 2, 6}, 29);
  grad_check(random_tensor({3, 2, 3}, 30, 0.5f),
             [&](const Tensor& w2) { return sum_all(conv1d(x2, w2, b)); });
}

// conv1d's backward against a double-precision reference, driven by a
// random upstream gradient r: sum_all's all-ones gradient cannot tell a
// mis-ordered gy regroup (or a swapped dW/dx tap) from the right one.
// Covers L < K, where most taps fall in the zero padding.
TEST(Autograd, Conv1dBackwardMatchesDoubleReference) {
  const int Ci = 2, Co = 3;
  std::uint64_t seed = 100;
  for (int K : {1, 3, 5}) {
    for (int L : {1, 2, 5, 20}) {
      for (int B : {1, 3}) {
        Tensor x = random_tensor({B, Ci, L}, seed++);
        Tensor w = random_tensor({Co, Ci, K}, seed++, 0.5f);
        Tensor b = random_tensor({Co}, seed++);
        const Tensor r = random_tensor({B, Co, L}, seed++);
        backward(sum_all(mul(conv1d(x, w, b), r)));

        const int pad = K / 2;
        std::vector<double> dx(x.numel(), 0.0), dw(w.numel(), 0.0),
            db(b.numel(), 0.0), mag_x(x.numel(), 0.0), mag_w(w.numel(), 0.0),
            mag_b(b.numel(), 0.0);
        for (int bi = 0; bi < B; ++bi) {
          for (int co = 0; co < Co; ++co) {
            for (int l = 0; l < L; ++l) {
              const double g = r.data()[(bi * Co + co) * L + l];
              db[co] += g;
              mag_b[co] += std::abs(g);
              for (int ci = 0; ci < Ci; ++ci) {
                for (int k = 0; k < K; ++k) {
                  const int li = l + k - pad;
                  if (li < 0 || li >= L) continue;
                  const int xi = (bi * Ci + ci) * L + li;
                  const int wi = (co * Ci + ci) * K + k;
                  dw[wi] += g * x.data()[xi];
                  mag_w[wi] += std::abs(g * x.data()[xi]);
                  dx[xi] += g * w.data()[wi];
                  mag_x[xi] += std::abs(g * w.data()[wi]);
                }
              }
            }
          }
        }
        const auto expect_close = [&](const char* what, Tensor& t,
                                      const std::vector<double>& ref,
                                      const std::vector<double>& mag) {
          for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_NEAR(t.grad()[i], ref[i], 1e-5 * mag[i] + 1e-6)
                << what << "[" << i << "] K=" << K << " L=" << L
                << " B=" << B;
          }
        };
        expect_close("dx", x, dx, mag_x);
        expect_close("dW", w, dw, mag_w);
        expect_close("db", b, db, mag_b);
      }
    }
  }
}

TEST(Autograd, PoolingAndUpsample) {
  grad_check(random_tensor({2, 3, 8}, 31), [](const Tensor& x) {
    return sum_all(upsample1d(avg_pool1d(x)));
  });
}

TEST(Autograd, ConcatChannelsAndChannelBias) {
  const Tensor other = random_tensor({2, 2, 4}, 32);
  const Tensor bias = random_tensor({2, 5}, 33);
  grad_check(random_tensor({2, 3, 4}, 34), [&](const Tensor& x) {
    return sum_all(add_channel_bias(concat_channels(x, other), bias));
  });
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = sum(x*x + x) uses x twice; gradient must accumulate both paths.
  Tensor x = Tensor::from_data({3}, {1.0f, -2.0f, 0.5f}, true);
  Tensor y = sum_all(add(mul(x, x), x));
  backward(y);
  EXPECT_NEAR(x.grad()[0], 2 * 1.0f + 1, 1e-5);
  EXPECT_NEAR(x.grad()[1], 2 * -2.0f + 1, 1e-5);
  EXPECT_NEAR(x.grad()[2], 2 * 0.5f + 1, 1e-5);
}

TEST(Autograd, BackwardKeepsLeafGradsAndFreesInteriorOnes) {
  // y = sum(h * h) with h = x W: dx = 2 h W^T and dW = 2 x^T h.
  Tensor x = Tensor::from_data({2, 3}, {1, -2, 0.5f, 3, 0.25f, -1}, true);
  Tensor w = Tensor::from_data({3, 2}, {0.5f, -1, 2, 0.75f, -0.5f, 1}, true);
  Tensor h = matmul(x, w);
  Tensor y = sum_all(mul(h, h));
  backward(y);
  auto xv = [&](int i, int k) { return double{x.data()[i * 3 + k]}; };
  auto wv = [&](int k, int j) { return double{w.data()[k * 2 + j]}; };
  auto hv = [&](int i, int j) {
    double acc = 0.0;
    for (int k = 0; k < 3; ++k) acc += xv(i, k) * wv(k, j);
    return acc;
  };
  for (int i = 0; i < 2; ++i) {
    for (int k = 0; k < 3; ++k) {
      const double dx = 2.0 * (hv(i, 0) * wv(k, 0) + hv(i, 1) * wv(k, 1));
      EXPECT_NEAR(x.grad()[i * 3 + k], dx, 1e-5) << "dx " << i << "," << k;
    }
  }
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < 2; ++j) {
      const double dw = 2.0 * (xv(0, k) * hv(0, j) + xv(1, k) * hv(1, j));
      EXPECT_NEAR(w.grad()[k * 2 + j], dw, 1e-5) << "dW " << k << "," << j;
    }
  }
  // Interior nodes, the root included, hold no gradient after the call
  // (read the raw buffer: Tensor::grad() would allocate a zeroed one).
  EXPECT_TRUE(h.impl()->grad.empty());
  EXPECT_TRUE(y.impl()->grad.empty());
}

TEST(Autograd, DetachStopsGradient) {
  Tensor x = Tensor::from_data({2}, {3.0f, 4.0f}, true);
  Tensor y = sum_all(mul(detach(x), x));
  backward(y);
  EXPECT_NEAR(x.grad()[0], 3.0f, 1e-5);  // only the non-detached path
  EXPECT_NEAR(x.grad()[1], 4.0f, 1e-5);
}

TEST(Autograd, BackwardRequiresScalar) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  EXPECT_THROW(backward(x), std::invalid_argument);
}

TEST(Autograd, NoGradWhenNotRequired) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, false);
  Tensor y = sum_all(mul(x, x));
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, NoGradGuardDisablesGraphRecording) {
  Tensor x = Tensor::from_data({2}, {1.0f, 2.0f}, true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    // Values still compute, but nothing records a graph — even from a
    // requires_grad input, across binary, unary, and row-wise ops.
    Tensor y = sum_all(mul(x, x));
    EXPECT_FALSE(y.requires_grad());
    EXPECT_NEAR(y.item(), 5.0f, 1e-5);
    EXPECT_FALSE(silu(x).requires_grad());
    EXPECT_FALSE(softmax_rows(reshape(x, {1, 2})).requires_grad());
    // Guards nest and restore on scope exit.
    {
      NoGradGuard inner;
      EXPECT_FALSE(grad_enabled());
    }
    EXPECT_FALSE(grad_enabled());
  }
  EXPECT_TRUE(grad_enabled());
  // Recording works again after the guard is gone.
  Tensor y = sum_all(mul(x, x));
  EXPECT_TRUE(y.requires_grad());
  backward(y);
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-5);
  EXPECT_NEAR(x.grad()[1], 4.0f, 1e-5);
}

TEST(Autograd, RepeatedBackwardWalksTheGraphAgain) {
  Tensor x = Tensor::from_data({2}, {1.0f, -3.0f}, true);
  Tensor y = sum_all(mul(x, x));
  backward(y);
  backward(y);
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], -12.0f);
}

TEST(Autograd, BackwardLeavesFrozenAndConstantLeavesUntouched) {
  // A frozen weight and a constant are read by the forward and never
  // written by the backward: no grad buffer appears on either.
  Tensor x = random_tensor({3, 4}, 21);
  Tensor w = random_tensor({4, 2}, 22);
  const Tensor c = Tensor::full({3, 2}, 0.5f);
  {
    GradFreeze freeze({w});
    backward(sum_all(mul(matmul(x, w), c)));
  }
  EXPECT_TRUE(w.impl()->grad.empty());
  EXPECT_TRUE(c.impl()->grad.empty());
  EXPECT_FALSE(x.impl()->grad.empty());
  EXPECT_TRUE(w.requires_grad());
}

// ---- op-level bit identity against the composites the ops replaced --------
//
// scale_rows, repeat_rows and the n-ary concat_cols replaced a ones-matmul
// broadcast and a pairwise concat chain; each must give the same bits as
// the composite, forward and for every input grad, on both dispatch
// targets, including non-finite inputs (a 0 * Inf in the backward must
// still surface as NaN). A NaN compares as "NaN": when an add meets two
// NaNs, x86 returns the one in the first operand slot, and which operand
// goes there is the compiler's choice, so NaN sign and payload are not
// part of any kernel's contract.

std::vector<std::uint32_t> bits_of(const FloatBuf& v) {
  std::vector<std::uint32_t> out;
  for (float f : v) {
    out.push_back(std::isnan(f) ? 0x7fc00000u : std::bit_cast<std::uint32_t>(f));
  }
  return out;
}

/// Gaussian entries with about one in eight replaced by +-Inf, NaN or a
/// signed zero.
Tensor special_tensor(std::vector<int> shape, clo::Rng& rng,
                      bool requires_grad = true) {
  Tensor t = Tensor::randn(std::move(shape), rng, 1.0f, requires_grad);
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), 0.0f,
                            -0.0f};
  for (auto& v : t.data()) {
    if (rng.next_below(8) == 0) v = specials[rng.next_below(5)];
  }
  return t;
}

/// Runs `check` on every dispatch target this host supports.
void on_every_target(const std::function<void()>& check) {
  const bool initial = kernel::simd_enabled();
  for (bool simd : {false, true}) {
    if (simd && !kernel::simd_supported()) continue;
    kernel::set_simd_enabled(simd);
    SCOPED_TRACE(kernel::active_target());
    check();
  }
  kernel::set_simd_enabled(initial);
}

/// Forward value and leaf grads of sum(out * upstream), a root that seeds
/// out's grad with `upstream`.
struct Pass {
  std::vector<std::uint32_t> value;
  std::vector<std::vector<std::uint32_t>> grads;
};

Pass run_pass(const std::vector<Tensor>& leaves, const Tensor& upstream,
              const std::function<Tensor()>& build) {
  for (Tensor leaf : leaves) leaf.zero_grad();
  Tensor out = build();
  Pass pass{bits_of(out.data()), {}};
  backward(sum_all(mul(out, upstream)));
  for (Tensor leaf : leaves) pass.grads.push_back(bits_of(leaf.grad()));
  return pass;
}

void expect_same(const Pass& a, const Pass& b) {
  EXPECT_EQ(a.value, b.value);
  ASSERT_EQ(a.grads.size(), b.grads.size());
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    EXPECT_EQ(a.grads[i], b.grads[i]) << "grad of leaf " << i;
  }
}

TEST(OpIdentity, ScaleRowsMatchesOnesMatmulBroadcast) {
  on_every_target([] {
    clo::Rng rng(41);
    for (int trial = 0; trial < 40; ++trial) {
      const int rows = 1 + static_cast<int>(rng.next_below(9));
      const int cols = 1 + static_cast<int>(rng.next_below(40));
      Tensor x = special_tensor({rows, cols}, rng);
      Tensor s = special_tensor({rows, 1}, rng);
      const Tensor up = special_tensor({rows, cols}, rng, false);
      const Pass composite = run_pass({x, s}, up, [&] {
        const Tensor ones = Tensor::full({1, cols}, 1.0f);
        return mul(matmul(s, ones), x);
      });
      const Pass op = run_pass({x, s}, up, [&] { return scale_rows(x, s); });
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_same(composite, op);
    }
  });
}

TEST(OpIdentity, RepeatRowsMatchesOnesMatmulBroadcast) {
  on_every_target([] {
    clo::Rng rng(43);
    for (int trial = 0; trial < 40; ++trial) {
      const int rows = 1 + static_cast<int>(rng.next_below(40));
      const int cols = 1 + static_cast<int>(rng.next_below(24));
      Tensor row = special_tensor({1, cols}, rng);
      const Tensor up = special_tensor({rows, cols}, rng, false);
      const Pass composite = run_pass({row}, up, [&] {
        const Tensor ones = Tensor::full({rows, 1}, 1.0f);
        return matmul(ones, row);
      });
      const Pass op = run_pass({row}, up, [&] { return repeat_rows(row, rows); });
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_same(composite, op);
    }
  });
}

TEST(OpIdentity, ConcatColsMatchesPairwiseChain) {
  on_every_target([] {
    clo::Rng rng(47);
    for (int trial = 0; trial < 40; ++trial) {
      const int rows = 1 + static_cast<int>(rng.next_below(8));
      const int n = 1 + static_cast<int>(rng.next_below(12));
      std::vector<Tensor> parts;
      int cols = 0;
      for (int k = 0; k < n; ++k) {
        const int w = 1 + static_cast<int>(rng.next_below(5));
        // Parts are interior nodes, as the score columns are: their
        // grads then flow on into the leaves.
        parts.push_back(special_tensor({rows, w}, rng));
        cols += w;
      }
      const Tensor up = special_tensor({rows, cols}, rng, false);
      auto interior = [&parts] {
        std::vector<Tensor> out;
        for (const Tensor& p : parts) out.push_back(scale(p, 1.0f));
        return out;
      };
      const Pass composite = run_pass(parts, up, [&] {
        Tensor chain;
        for (const Tensor& p : interior()) {
          chain = chain.defined() ? concat_cols({chain, p}) : p;
        }
        return chain;
      });
      const Pass op =
          run_pass(parts, up, [&] { return concat_cols(interior()); });
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_same(composite, op);
    }
  });
}

TEST(Tensor, ShapeChecksThrow) {
  Tensor a = Tensor::zeros({2, 3});
  Tensor b = Tensor::zeros({3, 2});
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(matmul(a, a), std::invalid_argument);
  EXPECT_THROW(reshape(a, {5}), std::invalid_argument);
  EXPECT_THROW(Tensor::from_data({2}, {1.0f}), std::invalid_argument);
}

}  // namespace
