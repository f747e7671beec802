#pragma once
// Differentiable operations over Tensor. Shapes follow simple conventions:
//  * 2-D [rows, cols] for dense layers,
//  * 3-D [batch, channels, length] for the 1-D U-Net convolutions.
// Broadcasting is deliberately limited to the cases the models need:
// adding a [cols] bias to [rows, cols], scaling rows by a [rows, 1]
// column, repeating a [1, cols] row, and scalar scaling.

#include "clo/nn/tensor.hpp"

namespace clo::nn {

// ---- Elementwise ----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);        ///< same shape
Tensor add_bias(const Tensor& a, const Tensor& b);   ///< [r,c] + [c]
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);        ///< same shape
/// Row-broadcast multiply: out[r,c] = s[r] * x[r,c] for x [r,c], s [r,1].
Tensor scale_rows(const Tensor& x, const Tensor& s);
/// Broadcast a [1,c] row to [rows,c].
Tensor repeat_rows(const Tensor& row, int rows);
Tensor scale(const Tensor& a, float s);
Tensor neg(const Tensor& a);

Tensor relu(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor silu(const Tensor& a);

// ---- Linear algebra ---------------------------------------------------------
/// [m,k] x [k,n] -> [m,n]; transpose_b treats b as [n,k].
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_b = false);

// ---- Reductions -------------------------------------------------------------
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);
/// Mean over rows of [r,c] -> [1,c].
Tensor mean_rows(const Tensor& a);
/// Mean squared error between same-shaped tensors -> scalar.
Tensor mse_loss(const Tensor& pred, const Tensor& target);

// ---- Shape ops ---------------------------------------------------------------
Tensor reshape(const Tensor& a, std::vector<int> shape);
/// Concatenate 2-D tensors with equal row counts along the last dim.
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Columns [begin, end) of a 2-D tensor.
Tensor slice_cols(const Tensor& a, int begin, int end);
/// Select rows of a 2-D tensor by index (gather); backward scatter-adds.
/// Indices may repeat.
Tensor gather_rows(const Tensor& a, const std::vector<int>& rows);

// ---- Softmax / normalization --------------------------------------------------
/// Softmax over the last dim of a 2-D tensor.
Tensor softmax_rows(const Tensor& a);
/// Layer normalization over the last dim of [r,c] with gain/bias [c].
Tensor layer_norm(const Tensor& a, const Tensor& gain, const Tensor& bias,
                  float eps = 1e-5f);

// ---- 1-D convolution stack (shapes [batch, channels, length]) -----------------
/// weight [C_out, C_in, K] (K odd, same padding), bias [C_out].
Tensor conv1d(const Tensor& x, const Tensor& weight, const Tensor& bias);
/// Average pooling by 2 (length must be even).
Tensor avg_pool1d(const Tensor& x);
/// Nearest-neighbor upsample by 2.
Tensor upsample1d(const Tensor& x);
/// Concatenate along the channel dim.
Tensor concat_channels(const Tensor& a, const Tensor& b);
/// Add a [batch, channels] (or [channels]) bias across every position.
Tensor add_channel_bias(const Tensor& x, const Tensor& b);

}  // namespace clo::nn
