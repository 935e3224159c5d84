#pragma once
// Layers for the CAPES Q-network: fully connected (dense) layers and the
// tanh nonlinearity the paper uses (§3.4). Each layer owns its parameters
// and accumulated gradients; training code zeroes gradients, runs
// forward/backward, then hands parameter/gradient pairs to the optimizer.

#include <cstddef>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace capes::util {
class ThreadPool;
}

namespace capes::nn {

/// A named parameter tensor: flat values plus same-shape gradient.
struct Parameter {
  std::string name;
  std::vector<float> value;
  std::vector<float> grad;
};

/// Fully connected layer: Y = X * W^T + b, W is [out, in].
class Dense {
 public:
  Dense(std::size_t in_features, std::size_t out_features, std::string name);

  /// Xavier/Glorot uniform initialization: U(-limit, limit) with
  /// limit = sqrt(6 / (fan_in + fan_out)). Biases start at zero.
  void init_xavier(util::Rng& rng);

  /// X: [batch, in] -> returns [batch, out]. Caches X for backward.
  const Matrix& forward(const Matrix& x, util::ThreadPool* pool = nullptr);

  /// grad_out: [batch, out] -> returns grad wrt input [batch, in].
  /// Accumulates into weight/bias gradients.
  const Matrix& backward(const Matrix& grad_out, util::ThreadPool* pool = nullptr);

  /// backward() without the input gradient: only accumulates the
  /// weight/bias gradients (for a first layer, whose input needs none).
  void backward_params(const Matrix& grad_out, util::ThreadPool* pool = nullptr);

  void zero_grad();

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weights() { return w_; }
  Parameter& bias() { return b_; }
  const Parameter& weights() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  ConstMatrixView weight_matrix() const { return {w_.value.data(), out_, in_}; }

  std::size_t in_;
  std::size_t out_;
  Parameter w_;  // [out, in] row-major
  Parameter b_;  // [out]
  Matrix cached_input_;
  Matrix output_;
  Matrix grad_input_;
  // Scratch reused across calls so steady-state forward/backward perform
  // no heap allocation (the hot-path contract of the async learner).
  Matrix w_t_;  // W^T [in, out], the batched forward's B operand
  Matrix dw_scratch_;
  std::vector<float> db_scratch_;
};

/// Elementwise hyperbolic tangent.
class Tanh {
 public:
  const Matrix& forward(const Matrix& x);
  const Matrix& backward(const Matrix& grad_out);

 private:
  Matrix output_;
  Matrix grad_input_;
};

/// Elementwise rectified linear unit (optional alternative activation).
class Relu {
 public:
  const Matrix& forward(const Matrix& x);
  const Matrix& backward(const Matrix& grad_out);

 private:
  Matrix output_;
  Matrix grad_input_;
};

}  // namespace capes::nn
