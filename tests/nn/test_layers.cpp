#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace capes::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

TEST(Dense, OutputShape) {
  util::Rng rng(1);
  Dense d(4, 3, "d");
  d.init_xavier(rng);
  Matrix x = random_matrix(5, 4, rng);
  const Matrix& y = d.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Dense, ZeroWeightsGiveBias) {
  Dense d(3, 2, "d");
  d.bias().value = {1.5f, -0.5f};
  util::Rng rng(2);
  Matrix x = random_matrix(4, 3, rng);
  const Matrix& y = d.forward(x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(y.at(i, 0), 1.5f);
    EXPECT_FLOAT_EQ(y.at(i, 1), -0.5f);
  }
}

TEST(Dense, KnownLinearMap) {
  Dense d(2, 1, "d");
  d.weights().value = {2.0f, -3.0f};  // W is [1, 2]
  d.bias().value = {0.5f};
  Matrix x(1, 2);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  const Matrix& y = d.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f - 6.0f + 0.5f);
}

TEST(Dense, XavierInitRange) {
  util::Rng rng(3);
  Dense d(100, 50, "d");
  d.init_xavier(rng);
  const double limit = std::sqrt(6.0 / 150.0);
  for (float w : d.weights().value) {
    EXPECT_LE(std::fabs(w), limit + 1e-6);
  }
  for (float b : d.bias().value) EXPECT_EQ(b, 0.0f);
  // Not all identical.
  EXPECT_NE(d.weights().value[0], d.weights().value[1]);
}

TEST(Dense, ZeroGradClears) {
  util::Rng rng(4);
  Dense d(3, 3, "d");
  d.init_xavier(rng);
  Matrix x = random_matrix(2, 3, rng);
  d.forward(x);
  Matrix g = random_matrix(2, 3, rng);
  d.backward(g);
  bool any_nonzero = false;
  for (float v : d.weights().grad) any_nonzero |= v != 0.0f;
  EXPECT_TRUE(any_nonzero);
  d.zero_grad();
  for (float v : d.weights().grad) EXPECT_EQ(v, 0.0f);
  for (float v : d.bias().grad) EXPECT_EQ(v, 0.0f);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  util::Rng rng(5);
  Dense d(2, 2, "d");
  d.init_xavier(rng);
  Matrix x = random_matrix(3, 2, rng);
  Matrix g = random_matrix(3, 2, rng);
  d.forward(x);
  d.backward(g);
  const auto once = d.weights().grad;
  d.forward(x);
  d.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(d.weights().grad[i], 2.0f * once[i], 1e-5f);
  }
}

/// Numerical gradient check of a Dense layer through a scalar loss
/// L = sum(forward(x)).
TEST(Dense, NumericalGradientCheck) {
  util::Rng rng(6);
  Dense d(4, 3, "d");
  d.init_xavier(rng);
  Matrix x = random_matrix(2, 4, rng);

  // Analytic gradients: dL/dY = 1.
  d.zero_grad();
  d.forward(x);
  Matrix ones(2, 3, 1.0f);
  const Matrix& dx = d.backward(ones);

  const float eps = 1e-3f;
  // Check dL/dW for a few entries.
  for (std::size_t idx : {0u, 5u, 11u}) {
    auto& w = d.weights().value;
    const float orig = w[idx];
    w[idx] = orig + eps;
    float lp = 0.0f;
    {
      const Matrix& y = d.forward(x);
      for (std::size_t i = 0; i < y.size(); ++i) lp += y.data()[i];
    }
    w[idx] = orig - eps;
    float lm = 0.0f;
    {
      const Matrix& y = d.forward(x);
      for (std::size_t i = 0; i < y.size(); ++i) lm += y.data()[i];
    }
    w[idx] = orig;
    const float numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(d.weights().grad[idx], numeric, 5e-2f) << "w index " << idx;
  }
  // Check dL/dX entry 0: equals sum over outputs of W[:, 0].
  float expected_dx = 0.0f;
  for (std::size_t o = 0; o < 3; ++o) expected_dx += d.weights().value[o * 4];
  EXPECT_NEAR(dx.at(0, 0), expected_dx, 1e-4f);
}

Matrix random_with_zeros(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m = random_matrix(r, c, rng);
  for (std::size_t i = 0; i < m.size(); i += 4) m.data()[i] = 0.0f;
  return m;
}

bool same_bits(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Strict-order reference of one Dense output: +0.0f, then x[p] * W[j][p]
/// for increasing p, then the bias.
float reference_output(const Dense& d, const Matrix& x, std::size_t i,
                       std::size_t j) {
  float acc = 0.0f;
  for (std::size_t p = 0; p < d.in_features(); ++p) {
    acc += x.at(i, p) * d.weights().value[j * d.in_features() + p];
  }
  return acc + d.bias().value[j];
}

/// Forward is exact on both of its paths: fewer than 4 rows reads W in
/// place, larger batches go through the transposed panel.
TEST(Dense, ForwardMatchesStrictOrderReferenceBitForBit) {
  util::Rng rng(11);
  Dense d(37, 19, "d");
  d.init_xavier(rng);
  d.bias().value = random_matrix(1, 19, rng).storage();
  util::ThreadPool pool(3);
  for (std::size_t n : {1u, 3u, 4u, 5u, 33u}) {
    const Matrix x = random_with_zeros(n, 37, rng);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
      const Matrix& y = d.forward(x, p);
      ASSERT_EQ(y.rows(), n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < 19; ++j) {
          const float want = reference_output(d, x, i, j);
          ASSERT_TRUE(same_bits(&y.row(i)[j], &want, 1))
              << "n=" << n << " row " << i << " col " << j;
        }
      }
    }
  }
}

/// Acting on one observation (the n < 4 path) gives the same bits as the
/// same row inside a training-sized batch (the packed path).
TEST(Dense, SingleRowForwardMatchesBatchedRow) {
  util::Rng rng(12);
  Dense d(225, 128, "d");
  d.init_xavier(rng);
  const Matrix batch = random_with_zeros(32, 225, rng);
  const Matrix batched = d.forward(batch);
  for (std::size_t i : {0u, 13u, 31u}) {
    Matrix one(1, 225);
    std::copy(batch.row(i), batch.row(i) + 225, one.row(0));
    const Matrix& y = d.forward(one);
    EXPECT_TRUE(same_bits(y.row(0), batched.row(i), 128)) << "row " << i;
  }
}

/// backward() accumulates exact strict-order dW, db and returns the exact
/// input gradient; backward_params() fills the same parameter gradients.
TEST(Dense, BackwardMatchesStrictOrderReferenceBitForBit) {
  util::Rng rng(13);
  const std::size_t n = 9, in = 21, out = 11;
  Dense d(in, out, "d");
  d.init_xavier(rng);
  const Matrix x = random_with_zeros(n, in, rng);
  const Matrix g = random_with_zeros(n, out, rng);
  d.forward(x);
  const Matrix& dx = d.backward(g);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < in; ++p) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < out; ++j) {
        acc += g.at(i, j) * d.weights().value[j * in + p];
      }
      ASSERT_TRUE(same_bits(&dx.row(i)[p], &acc, 1)) << "dx " << i << "," << p;
    }
  }
  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t p = 0; p < in; ++p) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < n; ++i) acc += g.at(i, j) * x.at(i, p);
      const float want = 0.0f + acc;
      ASSERT_TRUE(same_bits(&d.weights().grad[j * in + p], &want, 1))
          << "dW " << j << "," << p;
    }
    float db = 0.0f;
    for (std::size_t i = 0; i < n; ++i) db += g.at(i, j);
    const float want = 0.0f + db;
    ASSERT_TRUE(same_bits(&d.bias().grad[j], &want, 1)) << "db " << j;
  }

  Dense params_only(in, out, "d");
  params_only.weights().value = d.weights().value;
  params_only.forward(x);
  params_only.backward_params(g);
  EXPECT_TRUE(same_bits(params_only.weights().grad.data(),
                        d.weights().grad.data(), in * out));
  EXPECT_TRUE(same_bits(params_only.bias().grad.data(),
                        d.bias().grad.data(), out));
}

TEST(Tanh, ForwardValues) {
  Tanh t;
  Matrix x(1, 3);
  x.at(0, 0) = 0.0f;
  x.at(0, 1) = 100.0f;
  x.at(0, 2) = -100.0f;
  const Matrix& y = t.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_NEAR(y.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(y.at(0, 2), -1.0f, 1e-6f);
}

TEST(Tanh, BackwardDerivative) {
  Tanh t;
  Matrix x(1, 2);
  x.at(0, 0) = 0.5f;
  x.at(0, 1) = -1.2f;
  t.forward(x);
  Matrix g(1, 2, 1.0f);
  const Matrix& dx = t.backward(g);
  for (std::size_t j = 0; j < 2; ++j) {
    const float y = std::tanh(x.at(0, j));
    EXPECT_NEAR(dx.at(0, j), 1.0f - y * y, 1e-6f);
  }
}

TEST(Tanh, SaturatedGradientVanishes) {
  Tanh t;
  Matrix x(1, 1, 50.0f);
  t.forward(x);
  Matrix g(1, 1, 1.0f);
  EXPECT_NEAR(t.backward(g).at(0, 0), 0.0f, 1e-6f);
}

TEST(Relu, ForwardClampsNegative) {
  Relu r;
  Matrix x(1, 3);
  x.at(0, 0) = -2.0f;
  x.at(0, 1) = 0.0f;
  x.at(0, 2) = 3.0f;
  const Matrix& y = r.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 3.0f);
}

TEST(Relu, BackwardMasksNegative) {
  Relu r;
  Matrix x(1, 2);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 2.0f;
  r.forward(x);
  Matrix g(1, 2, 5.0f);
  const Matrix& dx = r.backward(g);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 5.0f);
}

}  // namespace
}  // namespace capes::nn
