#include "nn/layers.hpp"

#include <cmath>

namespace capes::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, std::string name)
    : in_(in_features), out_(out_features) {
  w_.name = name + ".weight";
  w_.value.assign(in_ * out_, 0.0f);
  w_.grad.assign(in_ * out_, 0.0f);
  b_.name = name + ".bias";
  b_.value.assign(out_, 0.0f);
  b_.grad.assign(out_, 0.0f);
  w_t_.resize(in_, out_);
}

void Dense::init_xavier(util::Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(in_ + out_));
  for (auto& w : w_.value) {
    w = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (auto& b : b_.value) b = 0.0f;
}

const Matrix& Dense::forward(const Matrix& x, util::ThreadPool* pool) {
  assert(x.cols() == in_);
  cached_input_ = x;
  // Both paths give the same bits (matrix.hpp's summation-order contract):
  // a batch amortises one transpose of W over its rows; acting on a
  // single observation reads W in place.
  if (x.rows() < kGemmRowBlock) {
    matmul_nt(x, weight_matrix(), output_, pool);
  } else {
    transpose(weight_matrix(), w_t_);
    matmul_nn(x, w_t_, output_, pool);
  }
  add_row_vector(output_, b_.value);
  return output_;
}

const Matrix& Dense::backward(const Matrix& grad_out, util::ThreadPool* pool) {
  backward_params(grad_out, pool);
  // dX = grad_out * W ([batch, out] x [out, in] -> [batch, in])
  matmul_nn(grad_out, weight_matrix(), grad_input_, pool);
  return grad_input_;
}

void Dense::backward_params(const Matrix& grad_out, util::ThreadPool* pool) {
  assert(grad_out.cols() == out_);
  assert(grad_out.rows() == cached_input_.rows());

  // dW += grad_out^T * X  ([out, batch] x [batch, in] -> [out, in])
  matmul_tn(grad_out, cached_input_, dw_scratch_, pool);
  for (std::size_t i = 0; i < dw_scratch_.size(); ++i) {
    w_.grad[i] += dw_scratch_.data()[i];
  }

  // db += column sums of grad_out
  column_sums(grad_out, db_scratch_);
  for (std::size_t i = 0; i < out_; ++i) b_.grad[i] += db_scratch_[i];
}

void Dense::zero_grad() {
  w_.grad.assign(w_.grad.size(), 0.0f);
  b_.grad.assign(b_.grad.size(), 0.0f);
}

const Matrix& Tanh::forward(const Matrix& x) {
  output_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    output_.data()[i] = std::tanh(x.data()[i]);
  }
  return output_;
}

const Matrix& Tanh::backward(const Matrix& grad_out) {
  assert(grad_out.rows() == output_.rows() && grad_out.cols() == output_.cols());
  grad_input_.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    const float y = output_.data()[i];
    grad_input_.data()[i] = grad_out.data()[i] * (1.0f - y * y);
  }
  return grad_input_;
}

const Matrix& Relu::forward(const Matrix& x) {
  output_.resize(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    output_.data()[i] = v > 0.0f ? v : 0.0f;
  }
  return output_;
}

const Matrix& Relu::backward(const Matrix& grad_out) {
  grad_input_.resize(grad_out.rows(), grad_out.cols());
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    grad_input_.data()[i] = output_.data()[i] > 0.0f ? grad_out.data()[i] : 0.0f;
  }
  return grad_input_;
}

}  // namespace capes::nn
