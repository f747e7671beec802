#include "clo/nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "clo/nn/kernel.hpp"
#include "clo/util/thread_pool.hpp"

namespace clo::nn {
namespace {

/// The output node of an op: zeroed storage of `shape`, plus — only when
/// the graph is being recorded and some parent takes part in it — the
/// parents and the backward closure. Otherwise no graph piece is built:
/// the closure is dropped unconverted, so inference allocates nothing but
/// the output.
template <typename It, typename Fn>
Tensor make_node(std::vector<int> shape, It first, It last, Fn&& backward_fn) {
  Tensor out = Tensor::zeros(std::move(shape));
  TensorImpl& node = *out.impl();
  node.requires_grad =
      grad_enabled() && std::any_of(first, last, [](const auto& p) {
        return p->requires_grad;
      });
  if (node.requires_grad) {
    node.parents.assign(first, last);
    node.backward_fn = std::forward<Fn>(backward_fn);
  }
  return out;
}

template <typename Fn>
Tensor make_result(std::vector<int> shape,
                   std::initializer_list<std::shared_ptr<TensorImpl>> parents,
                   Fn&& backward_fn) {
  return make_node(std::move(shape), parents.begin(), parents.end(),
                   std::forward<Fn>(backward_fn));
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}

/// Whether backward should write into this node's grad buffer: tracked
/// interior nodes and requires_grad leaves only. Frozen leaves (see
/// GradFreeze) and plain constants are skipped — they would never be read,
/// and skipping them is what makes concurrent backward passes over shared
/// (frozen) weights race-free.
bool wants_grad(const TensorImpl& p) {
  return p.requires_grad || p.backward_fn != nullptr;
}

void accumulate(const std::shared_ptr<TensorImpl>& p,
                const FloatBuf& grad_piece) {
  if (!wants_grad(*p)) return;
  p->ensure_grad();
  kernel::acc(p->grad.data(), grad_piece.data(), grad_piece.size());
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(a.shape(), {pa, pb}, [pa, pb](TensorImpl& self) {
    accumulate(pa, self.grad);
    accumulate(pb, self.grad);
  });
  kernel::add(out.data().data(), pa->data.data(), pb->data.data(),
              out.numel());
  return out;
}

Tensor add_bias(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 1 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("add_bias: need [r,c] + [c]");
  }
  auto pa = a.impl();
  auto pb = b.impl();
  const int rows = a.dim(0), cols = a.dim(1);
  Tensor out = make_result(a.shape(), {pa, pb},
                           [pa, pb, rows, cols](TensorImpl& self) {
    accumulate(pa, self.grad);
    if (!wants_grad(*pb)) return;
    pb->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      kernel::acc(pb->grad.data(),
                  self.grad.data() + static_cast<std::size_t>(r) * cols, cols);
    }
  });
  for (int r = 0; r < rows; ++r) {
    kernel::add(out.data().data() + static_cast<std::size_t>(r) * cols,
                pa->data.data() + static_cast<std::size_t>(r) * cols,
                pb->data.data(), cols);
  }
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(a.shape(), {pa, pb}, [pa, pb](TensorImpl& self) {
    accumulate(pa, self.grad);
    if (!wants_grad(*pb)) return;
    pb->ensure_grad();
    kernel::axpy(pb->grad.data(), -1.0f, self.grad.data(), self.grad.size());
  });
  kernel::sub(out.data().data(), pa->data.data(), pb->data.data(),
              out.numel());
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(a.shape(), {pa, pb}, [pa, pb](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      if (ga) pa->grad[i] += self.grad[i] * pb->data[i];
      if (gb) pb->grad[i] += self.grad[i] * pa->data[i];
    }
  });
  kernel::mul(out.data().data(), pa->data.data(), pb->data.data(),
              out.numel());
  return out;
}

Tensor scale_rows(const Tensor& x, const Tensor& s) {
  if (x.ndim() != 2 || s.ndim() != 2 || s.dim(1) != 1 ||
      s.dim(0) != x.dim(0)) {
    throw std::invalid_argument("scale_rows: need [r,c] and [r,1]");
  }
  const int rows = x.dim(0), cols = x.dim(1);
  auto px = x.impl();
  auto ps = s.impl();
  // The factor is read as 0 + s, which is what the ones-matmul broadcast
  // this replaces stored (it maps -0 to +0); s's grad is one dot per row,
  // which is what that matmul's backward took over the broadcast grad.
  Tensor out = make_result(x.shape(), {px, ps},
                           [px, ps, rows, cols](TensorImpl& self) {
    const bool gx = wants_grad(*px), gs = wants_grad(*ps);
    if (gx) px->ensure_grad();
    if (gs) ps->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * cols;
      if (gs) {
        ps->grad[r] += kernel::dot(self.grad.data() + row,
                                   px->data.data() + row, cols);
      }
      if (gx) {
        const float f = 0.0f + ps->data[r];
        for (int c = 0; c < cols; ++c) {
          px->grad[row + c] += self.grad[row + c] * f;
        }
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * cols;
    const float f = 0.0f + ps->data[r];
    for (int c = 0; c < cols; ++c) {
      out.data()[row + c] = f * px->data[row + c];
    }
  }
  return out;
}

Tensor repeat_rows(const Tensor& row, int rows) {
  if (row.ndim() != 2 || row.dim(0) != 1 || rows < 1) {
    throw std::invalid_argument("repeat_rows: need [1,c] and rows >= 1");
  }
  const int cols = row.dim(1);
  auto pr = row.impl();
  // Each output row accumulates the input row into zeroed storage, and
  // the input's grad is one chain over the output rows in order: the
  // float operations of the ones-matmul broadcast this replaces.
  Tensor out = make_result({rows, cols}, {pr}, [pr, rows, cols](TensorImpl& self) {
    if (!wants_grad(*pr)) return;
    pr->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      kernel::acc(pr->grad.data(),
                  self.grad.data() + static_cast<std::size_t>(r) * cols, cols);
    }
  });
  for (int r = 0; r < rows; ++r) {
    kernel::acc(out.data().data() + static_cast<std::size_t>(r) * cols,
                pr->data.data(), cols);
  }
  return out;
}

Tensor scale(const Tensor& a, float s) {
  auto pa = a.impl();
  Tensor out = make_result(a.shape(), {pa}, [pa, s](TensorImpl& self) {
    if (!wants_grad(*pa)) return;
    pa->ensure_grad();
    kernel::axpy(pa->grad.data(), s, self.grad.data(), self.grad.size());
  });
  kernel::scale(out.data().data(), pa->data.data(), s, out.numel());
  return out;
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

namespace {

template <typename Fwd, typename Dfn>
Tensor unary_op(const Tensor& a, Fwd fwd, Dfn dydx_from_y) {
  auto pa = a.impl();
  // The derivative is a function of the output, which the closure reads
  // from its own node.
  Tensor out = make_result(a.shape(), {pa}, [pa, dydx_from_y](TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      pa->grad[i] += self.grad[i] * dydx_from_y(self.data[i]);
    }
  });
  for (std::size_t i = 0; i < out.numel(); ++i) {
    out.data()[i] = fwd(pa->data[i]);
  }
  return out;
}

}  // namespace

Tensor relu(const Tensor& a) {
  return unary_op(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float y) { return y > 0 ? 1.0f : 0.0f; });
}

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float y) { return 1.0f - y * y; });
}

Tensor silu(const Tensor& a) {
  // silu(x) = x * sigmoid(x); derivative needs x, so read the input.
  auto pa = a.impl();
  Tensor out = make_result(a.shape(), {pa}, [pa](TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t i = 0; i < self.grad.size(); ++i) {
      const float x = pa->data[i];
      const float s = 1.0f / (1.0f + std::exp(-x));
      pa->grad[i] += self.grad[i] * (s + x * s * (1.0f - s));
    }
  });
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const float x = pa->data[i];
    out.data()[i] = x / (1.0f + std::exp(-x));
  }
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: need 2-D tensors");
  }
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = transpose_b ? b.dim(0) : b.dim(1);
  const int bk = transpose_b ? b.dim(1) : b.dim(0);
  if (k != bk) {
    throw std::invalid_argument("matmul: inner dims mismatch " +
                                a.shape_str() + " x " + b.shape_str());
  }
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result(
      {m, n}, {pa, pb}, [pa, pb, m, k, n, transpose_b](TensorImpl& self) {
        const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
        if (ga) pa->ensure_grad();
        if (gb) pb->ensure_grad();
        // No zero-skip fast path anywhere below: 0 * Inf and 0 * NaN must
        // produce NaN so a poisoned parameter always surfaces as a
        // non-finite loss/grad (the PR 4 rollback guards depend on it).
        if (ga) {
          // dA = dY · Bᵀ (or dY · B when b was transposed).
          kernel::matmul(self.grad.data(), pb->data.data(), pa->grad.data(),
                         m, n, k, !transpose_b);
        }
        if (gb) {
          // Both transpose cases are one Aᵀ·B product accumulating over
          // the shared row index i ascending — exactly the axpy loop
          // order this used before matmul_ta existed, now vectorized and
          // tiled over the kernel thread pool.
          if (transpose_b) {
            // dB[j,:] += gy[i,j] * A[i,:]  ⇒  dB = dYᵀ · A
            kernel::matmul_ta(self.grad.data(), pa->data.data(),
                              pb->grad.data(), m, n, k);
          } else {
            // dB[l,:] += A[i,l] * dY[i,:]  ⇒  dB = Aᵀ · dY
            kernel::matmul_ta(pa->data.data(), self.grad.data(),
                              pb->grad.data(), m, k, n);
          }
        }
      });
  kernel::matmul(pa->data.data(), pb->data.data(), out.data().data(), m, k, n,
                 transpose_b);
  return out;
}

Tensor sum_all(const Tensor& a) {
  auto pa = a.impl();
  Tensor out = make_result({1}, {pa}, [pa](TensorImpl& self) {
    pa->ensure_grad();
    for (auto& g : pa->grad) g += self.grad[0];
  });
  out.data()[0] = kernel::sum(pa->data.data(), pa->data.size());
  return out;
}

Tensor mean_all(const Tensor& a) {
  return scale(sum_all(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor mean_rows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("mean_rows: need 2-D");
  const int rows = a.dim(0), cols = a.dim(1);
  auto pa = a.impl();
  Tensor out = make_result({1, cols}, {pa}, [pa, rows, cols](TensorImpl& self) {
    pa->ensure_grad();
    const float inv = 1.0f / static_cast<float>(rows);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        pa->grad[r * cols + c] += self.grad[c] * inv;
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) out.data()[c] += pa->data[r * cols + c];
  }
  for (int c = 0; c < cols; ++c) out.data()[c] /= static_cast<float>(rows);
  return out;
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mse_loss");
  auto pa = pred.impl();
  auto pb = target.impl();
  const float inv = 1.0f / static_cast<float>(pred.numel());
  Tensor out = make_result({1}, {pa, pb}, [pa, pb, inv](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    const float g = self.grad[0];
    for (std::size_t i = 0; i < pa->data.size(); ++i) {
      const float d = 2.0f * (pa->data[i] - pb->data[i]) * inv * g;
      if (ga) pa->grad[i] += d;
      if (gb) pb->grad[i] -= d;
    }
  });
  out.data()[0] =
      kernel::sqdist(pa->data.data(), pb->data.data(), pred.numel()) * inv;
  return out;
}

Tensor reshape(const Tensor& a, std::vector<int> shape) {
  std::size_t n = 1;
  for (int d : shape) n *= static_cast<std::size_t>(d);
  if (n != a.numel()) throw std::invalid_argument("reshape: numel mismatch");
  auto pa = a.impl();
  Tensor out = make_result(std::move(shape), {pa}, [pa](TensorImpl& self) {
    accumulate(pa, self.grad);
  });
  out.data() = pa->data;
  return out;
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no parts");
  if (parts.size() == 1) return parts[0];
  const int rows = parts[0].dim(0);
  int cols = 0;
  for (const Tensor& p : parts) {
    if (p.ndim() != 2 || p.dim(0) != rows) {
      throw std::invalid_argument("concat_cols: need [r,c_i] parts");
    }
    cols += p.dim(1);
  }
  std::vector<std::shared_ptr<TensorImpl>> ps;
  ps.reserve(parts.size());
  for (const Tensor& p : parts) ps.push_back(p.impl());
  // The closure reads its parents back from its own node. Each part's
  // grad takes one += per element, which is what the pairwise chain this
  // replaces gave it: every hop of that chain added into a zeroed grad.
  Tensor out = make_node({rows, cols}, ps.begin(), ps.end(),
                         [rows, cols](TensorImpl& self) {
    int offset = 0;
    for (const auto& p : self.parents) {
      const int w = p->shape[1];
      if (wants_grad(*p)) {
        p->ensure_grad();
        for (int r = 0; r < rows; ++r) {
          for (int c = 0; c < w; ++c) {
            p->grad[r * w + c] += self.grad[r * cols + offset + c];
          }
        }
      }
      offset += w;
    }
  });
  int offset = 0;
  for (const auto& p : ps) {
    const int w = p->shape[1];
    for (int r = 0; r < rows; ++r) {
      std::copy_n(p->data.data() + static_cast<std::size_t>(r) * w, w,
                  out.data().data() + static_cast<std::size_t>(r) * cols +
                      offset);
    }
    offset += w;
  }
  return out;
}

Tensor slice_cols(const Tensor& a, int begin, int end) {
  if (a.ndim() != 2 || begin < 0 || end > a.dim(1) || begin >= end) {
    throw std::invalid_argument("slice_cols: bad range");
  }
  const int rows = a.dim(0), cols = a.dim(1), w = end - begin;
  auto pa = a.impl();
  Tensor out = make_result({rows, w}, {pa},
                           [pa, rows, cols, begin, w](TensorImpl& self) {
    pa->ensure_grad();
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < w; ++c) {
        pa->grad[r * cols + begin + c] += self.grad[r * w + c];
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < w; ++c) {
      out.data()[r * w + c] = pa->data[r * cols + begin + c];
    }
  }
  return out;
}

Tensor gather_rows(const Tensor& a, const std::vector<int>& rows) {
  if (a.ndim() != 2) throw std::invalid_argument("gather_rows: need 2-D");
  const int cols = a.dim(1);
  auto pa = a.impl();
  auto idx = rows;  // captured copy
  Tensor out = make_result({static_cast<int>(rows.size()), cols}, {pa},
                           [pa, idx, cols](TensorImpl& self) {
    pa->ensure_grad();
    for (std::size_t r = 0; r < idx.size(); ++r) {
      for (int c = 0; c < cols; ++c) {
        pa->grad[static_cast<std::size_t>(idx[r]) * cols + c] +=
            self.grad[r * cols + c];
      }
    }
  });
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (int c = 0; c < cols; ++c) {
      out.data()[r * cols + c] =
          pa->data[static_cast<std::size_t>(rows[r]) * cols + c];
    }
  }
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  if (a.ndim() != 2) throw std::invalid_argument("softmax_rows: need 2-D");
  const int rows = a.dim(0), cols = a.dim(1);
  auto pa = a.impl();
  // The backward reads the output y from its own node.
  Tensor out = make_result(a.shape(), {pa}, [pa, rows, cols](TensorImpl& self) {
    pa->ensure_grad();
    const FloatBuf& y = self.data;
    for (int r = 0; r < rows; ++r) {
      const float dot =
          kernel::dot(self.grad.data() + static_cast<std::size_t>(r) * cols,
                      y.data() + static_cast<std::size_t>(r) * cols, cols);
      for (int c = 0; c < cols; ++c) {
        pa->grad[r * cols + c] +=
            y[r * cols + c] * (self.grad[r * cols + c] - dot);
      }
    }
  });
  for (int r = 0; r < rows; ++r) {
    float* orow = out.data().data() + static_cast<std::size_t>(r) * cols;
    const float* arow = pa->data.data() + static_cast<std::size_t>(r) * cols;
    const float mx = kernel::max_value(arow, cols);
    // exp stays scalar on both dispatch targets (libm transcendentals have
    // no vector twin with identical rounding); max and the normalize go
    // through the kernels.
    float z = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float e = std::exp(arow[c] - mx);
      orow[c] = e;
      z += e;
    }
    kernel::div_inplace(orow, z, cols);
  }
  return out;
}

Tensor layer_norm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                  float eps) {
  if (a.ndim() != 2 || gain.ndim() != 1 || bias.ndim() != 1 ||
      gain.dim(0) != a.dim(1) || bias.dim(0) != a.dim(1)) {
    throw std::invalid_argument("layer_norm: need [r,c], [c], [c]");
  }
  const int rows = a.dim(0), cols = a.dim(1);
  auto pa = a.impl();
  auto pg = gain.impl();
  auto pb = bias.impl();
  Tensor out = Tensor::zeros(a.shape());
  std::vector<float> xhat(a.numel());
  std::vector<float> inv_std(rows);
  for (int r = 0; r < rows; ++r) {
    float mean = 0.0f;
    for (int c = 0; c < cols; ++c) mean += pa->data[r * cols + c];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (int c = 0; c < cols; ++c) {
      const float d = pa->data[r * cols + c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    inv_std[r] = 1.0f / std::sqrt(var + eps);
    for (int c = 0; c < cols; ++c) {
      const float xh = (pa->data[r * cols + c] - mean) * inv_std[r];
      xhat[r * cols + c] = xh;
      out.data()[r * cols + c] = xh * pg->data[c] + pb->data[c];
    }
  }
  const bool needs = (pa->requires_grad || pa->backward_fn ||
                      pg->requires_grad || pb->requires_grad) &&
                     grad_enabled();
  if (needs) {
    out.impl()->requires_grad = true;
    out.impl()->parents = {pa, pg, pb};
    out.impl()->backward_fn = [pa, pg, pb, xhat = std::move(xhat),
                               inv_std = std::move(inv_std), rows,
                               cols](TensorImpl& self) {
      const bool ga = wants_grad(*pa);
      const bool gg = wants_grad(*pg);
      const bool gb = wants_grad(*pb);
      if (ga) pa->ensure_grad();
      if (gg) pg->ensure_grad();
      if (gb) pb->ensure_grad();
      for (int r = 0; r < rows; ++r) {
        float sum_dy = 0.0f, sum_dy_xhat = 0.0f;
        for (int c = 0; c < cols; ++c) {
          const float dy = self.grad[r * cols + c] * pg->data[c];
          sum_dy += dy;
          sum_dy_xhat += dy * xhat[r * cols + c];
          if (gg) pg->grad[c] += self.grad[r * cols + c] * xhat[r * cols + c];
          if (gb) pb->grad[c] += self.grad[r * cols + c];
        }
        const float invn = 1.0f / static_cast<float>(cols);
        if (!ga) continue;
        for (int c = 0; c < cols; ++c) {
          const float dy = self.grad[r * cols + c] * pg->data[c];
          pa->grad[r * cols + c] +=
              inv_std[r] *
              (dy - invn * sum_dy - xhat[r * cols + c] * invn * sum_dy_xhat);
        }
      }
    };
  }
  return out;
}

// ---- conv1d stack -----------------------------------------------------------

namespace {

/// The conv1d patch layout, shared by forward and backward: row l of
/// `cols` ([L, Ci*K]) holds x[ci][l + k - K/2] at column ci*K + k for one
/// [Ci, L] batch element, and 0 where that tap falls outside [0, L).
void im2col(const float* x, int Ci, int L, int K, float* cols) {
  const int pad = K / 2;
  for (int l = 0; l < L; ++l) {
    // Taps k in [lo, hi) land inside [0, L); the rest are padding.
    const int lo = std::max(0, pad - l), hi = std::min(K, L - l + pad);
    float* row = cols + static_cast<std::size_t>(l) * Ci * K;
    const float* src = x + (l - pad + lo);  // x[ci][l + lo - pad], ci = 0
    for (int ci = 0; ci < Ci; ++ci) {
      float* dst = row + ci * K;
      const float* xs = src + static_cast<std::size_t>(ci) * L;
      for (int k = 0; k < lo; ++k) dst[k] = 0.0f;
      for (int k = lo; k < hi; ++k) dst[k] = xs[k - lo];
      for (int k = hi; k < K; ++k) dst[k] = 0.0f;
    }
  }
}

/// The adjoint of im2col: adds every in-range tap of `dcols` ([L, Ci*K])
/// into dx ([Ci, L]) and drops the padded ones. Each dx element gathers
/// its taps in l-ascending order.
void col2im(const float* dcols, int Ci, int L, int K, float* dx) {
  const int pad = K / 2;
  for (int l = 0; l < L; ++l) {
    const int lo = std::max(0, pad - l), hi = std::min(K, L - l + pad);
    const float* row = dcols + static_cast<std::size_t>(l) * Ci * K + lo;
    for (int ci = 0; ci < Ci; ++ci) {
      float* dst = dx + static_cast<std::size_t>(ci) * L + (l - pad + lo);
      for (int k = 0; k < hi - lo; ++k) dst[k] += row[ci * K + k];
    }
  }
}

}  // namespace

Tensor conv1d(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  if (x.ndim() != 3 || weight.ndim() != 3 || bias.ndim() != 1) {
    throw std::invalid_argument("conv1d: need [B,C,L], [Co,Ci,K], [Co]");
  }
  const int B = x.dim(0), Ci = x.dim(1), L = x.dim(2);
  const int Co = weight.dim(0), K = weight.dim(2);
  if (weight.dim(1) != Ci || bias.dim(0) != Co || K % 2 == 0) {
    throw std::invalid_argument("conv1d: shape mismatch");
  }
  const int CK = Ci * K;
  auto px = x.impl();
  auto pw = weight.impl();
  auto pb = bias.impl();
  Tensor out = make_result(
      {B, Co, L}, {px, pw, pb},
      [px, pw, pb, B, Ci, L, Co, K, CK](TensorImpl& self) {
        const bool gx = wants_grad(*px);
        const bool gw = wants_grad(*pw);
        const bool gb = wants_grad(*pb);
        if (gx) px->ensure_grad();
        if (gw) pw->ensure_grad();
        if (gb) pb->ensure_grad();
        const float* gy = self.grad.data();
        if (gb) {
          for (int b = 0; b < B; ++b) {
            for (int co = 0; co < Co; ++co) {
              pb->grad[co] += kernel::sum(
                  gy + (static_cast<std::size_t>(b) * Co + co) * L, L);
            }
          }
        }
        if (!gx && !gw) return;
        // Batch-folded im2col GEMMs: gyc[Co, B*L] regroups gy so row co
        // holds every batch element's output positions, and cols[B*L, CK]
        // stacks the forward's patches. Then dW += gyc · cols (each dW
        // element one chain over (b, l) ascending) and dcols = gycᵀ · W
        // (each element one chain over co ascending), scattered back into
        // dx by col2im. Both products tile over the output shape, so the
        // bytes do not depend on the kernel pool or dispatch target. The
        // patches are rebuilt here rather than kept from the forward pass:
        // holding them in the graph would pin a [B*L, CK] buffer per conv
        // layer until the backward pass reaches it.
        const int BL = B * L;
        std::vector<float> gyc(static_cast<std::size_t>(Co) * BL);
        // One [B*L, CK] buffer serves as cols for dW, then as dcols for dx.
        std::vector<float> cols(static_cast<std::size_t>(BL) * CK);
        for (int b = 0; b < B; ++b) {
          const std::size_t bl = static_cast<std::size_t>(b) * L;
          for (int co = 0; co < Co; ++co) {
            std::copy_n(gy + (static_cast<std::size_t>(b) * Co + co) * L, L,
                        gyc.data() + static_cast<std::size_t>(co) * BL + bl);
          }
          if (gw) {
            im2col(px->data.data() + static_cast<std::size_t>(b) * Ci * L, Ci,
                   L, K, cols.data() + bl * CK);
          }
        }
        if (gw) {
          kernel::matmul(gyc.data(), cols.data(), pw->grad.data(), Co, BL, CK,
                         /*transpose_b=*/false);
        }
        if (gx) {
          std::fill(cols.begin(), cols.end(), 0.0f);
          kernel::matmul_ta(gyc.data(), pw->data.data(), cols.data(), Co, BL,
                            CK);
          for (int b = 0; b < B; ++b) {
            col2im(cols.data() + static_cast<std::size_t>(b) * L * CK, Ci, L,
                   K, px->grad.data() + static_cast<std::size_t>(b) * Ci * L);
          }
        }
      });
  // im2col + one transpose_b matmul per batch element: gathering each
  // output position's padded patch once turns every output element into a
  // dense dot over Ci*K contiguous floats, shared by all Co filters.
  // kernel::matmul's transposed form computes exactly the 8-lane-tree dot
  // this op used since PR 3 (bias first, then one full tree-reduced dot
  // added to it), so values are unchanged — and identical on every
  // dispatch target. Batch elements are independent (private patch
  // buffer, disjoint output slab), so they fan out over the kernel thread
  // pool; per-element bytes cannot depend on which worker ran them. The
  // per-batch matmuls then run serially inside their worker (nested
  // kernels degrade to serial by design).
  util::parallel_tiles(kernel::thread_pool(), static_cast<std::size_t>(B),
                       [&](std::size_t bi) {
    const int b = static_cast<int>(bi);
    std::vector<float> patch(static_cast<std::size_t>(L) * CK);
    im2col(px->data.data() + static_cast<std::size_t>(b) * Ci * L, Ci, L, K,
           patch.data());
    float* ob = out.data().data() + static_cast<std::size_t>(b) * Co * L;
    for (int co = 0; co < Co; ++co) {
      std::fill(ob + static_cast<std::size_t>(co) * L,
                ob + static_cast<std::size_t>(co + 1) * L, pb->data[co]);
    }
    kernel::matmul(pw->data.data(), patch.data(), ob, Co, CK, L,
                   /*transpose_b=*/true);
  });
  return out;
}

Tensor avg_pool1d(const Tensor& x) {
  if (x.ndim() != 3 || x.dim(2) % 2 != 0) {
    throw std::invalid_argument("avg_pool1d: need [B,C,even L]");
  }
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2), Lo = L / 2;
  auto px = x.impl();
  Tensor out = make_result({B, C, Lo}, {px}, [px, B, C, L, Lo](TensorImpl& self) {
    px->ensure_grad();
    for (int b = 0; b < B; ++b) {
      for (int c = 0; c < C; ++c) {
        for (int l = 0; l < Lo; ++l) {
          const float g = 0.5f * self.grad[(b * C + c) * Lo + l];
          px->grad[(b * C + c) * L + 2 * l] += g;
          px->grad[(b * C + c) * L + 2 * l + 1] += g;
        }
      }
    }
  });
  for (int b = 0; b < B; ++b) {
    for (int c = 0; c < C; ++c) {
      for (int l = 0; l < Lo; ++l) {
        out.data()[(b * C + c) * Lo + l] =
            0.5f * (px->data[(b * C + c) * L + 2 * l] +
                    px->data[(b * C + c) * L + 2 * l + 1]);
      }
    }
  }
  return out;
}

Tensor upsample1d(const Tensor& x) {
  if (x.ndim() != 3) throw std::invalid_argument("upsample1d: need [B,C,L]");
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2), Lo = L * 2;
  auto px = x.impl();
  Tensor out = make_result({B, C, Lo}, {px}, [px, B, C, L, Lo](TensorImpl& self) {
    px->ensure_grad();
    for (int b = 0; b < B; ++b) {
      for (int c = 0; c < C; ++c) {
        for (int l = 0; l < L; ++l) {
          px->grad[(b * C + c) * L + l] +=
              self.grad[(b * C + c) * Lo + 2 * l] +
              self.grad[(b * C + c) * Lo + 2 * l + 1];
        }
      }
    }
  });
  for (int b = 0; b < B; ++b) {
    for (int c = 0; c < C; ++c) {
      for (int l = 0; l < L; ++l) {
        const float v = px->data[(b * C + c) * L + l];
        out.data()[(b * C + c) * Lo + 2 * l] = v;
        out.data()[(b * C + c) * Lo + 2 * l + 1] = v;
      }
    }
  }
  return out;
}

Tensor concat_channels(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 3 || b.ndim() != 3 || a.dim(0) != b.dim(0) ||
      a.dim(2) != b.dim(2)) {
    throw std::invalid_argument("concat_channels: shape mismatch");
  }
  const int B = a.dim(0), Ca = a.dim(1), Cb = b.dim(1), L = a.dim(2);
  auto pa = a.impl();
  auto pb = b.impl();
  Tensor out = make_result({B, Ca + Cb, L}, {pa, pb},
                           [pa, pb, B, Ca, Cb, L](TensorImpl& self) {
    const bool ga = wants_grad(*pa), gb = wants_grad(*pb);
    if (ga) pa->ensure_grad();
    if (gb) pb->ensure_grad();
    for (int bt = 0; bt < B; ++bt) {
      if (ga) {
        for (int c = 0; c < Ca; ++c) {
          for (int l = 0; l < L; ++l) {
            pa->grad[(bt * Ca + c) * L + l] +=
                self.grad[(bt * (Ca + Cb) + c) * L + l];
          }
        }
      }
      if (gb) {
        for (int c = 0; c < Cb; ++c) {
          for (int l = 0; l < L; ++l) {
            pb->grad[(bt * Cb + c) * L + l] +=
                self.grad[(bt * (Ca + Cb) + Ca + c) * L + l];
          }
        }
      }
    }
  });
  for (int bt = 0; bt < B; ++bt) {
    for (int c = 0; c < Ca; ++c) {
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * (Ca + Cb) + c) * L + l] = pa->data[(bt * Ca + c) * L + l];
      }
    }
    for (int c = 0; c < Cb; ++c) {
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * (Ca + Cb) + Ca + c) * L + l] =
            pb->data[(bt * Cb + c) * L + l];
      }
    }
  }
  return out;
}

Tensor add_channel_bias(const Tensor& x, const Tensor& b) {
  if (x.ndim() != 3) throw std::invalid_argument("add_channel_bias: [B,C,L]");
  const int B = x.dim(0), C = x.dim(1), L = x.dim(2);
  const bool batched = b.ndim() == 2;
  if ((batched && (b.dim(0) != B || b.dim(1) != C)) ||
      (!batched && b.dim(0) != C)) {
    throw std::invalid_argument("add_channel_bias: bias shape");
  }
  auto px = x.impl();
  auto pb = b.impl();
  Tensor out = make_result({B, C, L}, {px, pb},
                           [px, pb, B, C, L, batched](TensorImpl& self) {
    const bool gx = wants_grad(*px), gb = wants_grad(*pb);
    if (gx) px->ensure_grad();
    if (gb) pb->ensure_grad();
    for (int bt = 0; bt < B; ++bt) {
      for (int c = 0; c < C; ++c) {
        float s = 0.0f;
        for (int l = 0; l < L; ++l) {
          const float g = self.grad[(bt * C + c) * L + l];
          if (gx) px->grad[(bt * C + c) * L + l] += g;
          s += g;
        }
        if (gb) pb->grad[batched ? bt * C + c : c] += s;
      }
    }
  });
  for (int bt = 0; bt < B; ++bt) {
    for (int c = 0; c < C; ++c) {
      const float bias = pb->data[batched ? bt * C + c : c];
      for (int l = 0; l < L; ++l) {
        out.data()[(bt * C + c) * L + l] = px->data[(bt * C + c) * L + l] + bias;
      }
    }
  }
  return out;
}

}  // namespace clo::nn
