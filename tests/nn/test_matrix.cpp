#include "nn/matrix.hpp"

#include <gtest/gtest.h>

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

/// Reference triple-loop GEMM.
Matrix reference_nn(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol = 1e-4f) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "index " << i;
  }
}

TEST(Matrix, BasicAccessors) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = -2.0f;
  EXPECT_EQ(m.row(0)[1], -2.0f);
}

TEST(Matrix, FillAndResize) {
  Matrix m(2, 2, 1.0f);
  m.fill(3.0f);
  EXPECT_EQ(m.at(1, 1), 3.0f);
  m.resize(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.at(2, 3), 0.0f);
}

TEST(MatMul, IdentityNn) {
  util::Rng rng(1);
  Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix c;
  matmul_nn(a, eye, c);
  expect_matrix_near(c, a);
}

TEST(MatMul, KnownSmallProduct) {
  Matrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  Matrix b(2, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  b.at(1, 0) = 7;
  b.at(1, 1) = 8;
  Matrix c;
  matmul_nn(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(MatMul, NnMatchesReference) {
  util::Rng rng(2);
  Matrix a = random_matrix(7, 13, rng);
  Matrix b = random_matrix(13, 5, rng);
  Matrix c;
  matmul_nn(a, b, c);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatMul, NtMatchesReference) {
  util::Rng rng(3);
  Matrix a = random_matrix(6, 9, rng);
  Matrix bt = random_matrix(4, 9, rng);  // b = bt^T is 9x4
  Matrix b(9, 4);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b.at(i, j) = bt.at(j, i);
  }
  Matrix c;
  matmul_nt(a, bt, c);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatMul, TnMatchesReference) {
  util::Rng rng(4);
  Matrix at = random_matrix(9, 6, rng);  // a = at^T is 6x9
  Matrix a(6, 9);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 9; ++j) a.at(i, j) = at.at(j, i);
  }
  Matrix b = random_matrix(9, 3, rng);
  Matrix c;
  matmul_tn(at, b, c);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatMul, ThreadPoolMatchesSerial) {
  util::Rng rng(5);
  util::ThreadPool pool(3);
  Matrix a = random_matrix(64, 48, rng);
  Matrix b = random_matrix(48, 32, rng);
  Matrix serial, parallel;
  matmul_nn(a, b, serial);
  matmul_nn(a, b, parallel, &pool);
  expect_matrix_near(parallel, serial, 1e-6f);
}

TEST(MatMul, OutputOverwritesPreviousContents) {
  util::Rng rng(6);
  Matrix a = random_matrix(3, 3, rng);
  Matrix b = random_matrix(3, 3, rng);
  Matrix c(10, 10, 99.0f);
  matmul_nn(a, b, c);
  EXPECT_EQ(c.rows(), 3u);
  expect_matrix_near(c, reference_nn(a, b));
}

TEST(MatrixHelpers, AddRowVector) {
  Matrix m(2, 3, 1.0f);
  add_row_vector(m, {1.0f, 2.0f, 3.0f});
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(MatrixHelpers, ColumnSums) {
  Matrix m(3, 2);
  m.at(0, 0) = 1;
  m.at(1, 0) = 2;
  m.at(2, 0) = 3;
  m.at(0, 1) = -1;
  std::vector<float> sums;
  column_sums(m, sums);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_FLOAT_EQ(sums[0], 6.0f);
  EXPECT_FLOAT_EQ(sums[1], -1.0f);
}

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeSweep, AllVariantsAgree) {
  const auto [n, k, m] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 1000 + k * 10 + m));
  Matrix a = random_matrix(n, k, rng);
  Matrix b = random_matrix(k, m, rng);
  const Matrix ref = reference_nn(a, b);

  Matrix c_nn;
  matmul_nn(a, b, c_nn);
  expect_matrix_near(c_nn, ref, 1e-3f);

  Matrix bt(m, k);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < m; ++j) bt.at(j, i) = b.at(i, j);
  }
  Matrix c_nt;
  matmul_nt(a, bt, c_nt);
  expect_matrix_near(c_nt, ref, 1e-3f);

  Matrix at(k, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix c_tn;
  matmul_tn(at, b, c_tn);
  expect_matrix_near(c_tn, ref, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 8, 1),
                      std::make_tuple(2, 3, 4), std::make_tuple(16, 16, 16),
                      std::make_tuple(32, 7, 9), std::make_tuple(5, 64, 3),
                      std::make_tuple(33, 17, 65)));

Matrix transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) t.at(j, i) = m.at(i, j);
  }
  return t;
}

/// Random entries with exact zeros of both signs mixed in (observations
/// and relu activations contain them), so the bit-for-bit checks cover
/// ±0 products too.
Matrix random_with_zeros(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m = random_matrix(r, c, rng);
  for (std::size_t i = 0; i < m.size(); i += 3) {
    m.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  return m;
}

void expect_bits_equal(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
}

/// The summation-order contract of nn/matrix.hpp (strict order, from
/// +0.0f, increasing k): every kernel must match reference_nn bit for
/// bit, serially and on a pool, at shapes that leave remainder rows
/// (n % 4), partial column tiles and single-term reductions (k = 1).
class ExactKernels
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ExactKernels, MatchStrictOrderReferenceBitForBit) {
  const auto [n, k, m] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n * 10000 + k * 100 + m));
  const Matrix a = random_with_zeros(n, k, rng);
  const Matrix b = random_with_zeros(k, m, rng);
  const Matrix ref = reference_nn(a, b);
  const Matrix at = transposed(a);
  const Matrix bt = transposed(b);
  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    Matrix c;
    matmul_nn(a, b, c, p);
    expect_bits_equal(c, ref);
    matmul_nt(a, bt, c, p);
    expect_bits_equal(c, ref);
    matmul_tn(at, b, c, p);
    expect_bits_equal(c, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExactKernels,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 33),
                       ::testing::Values(1, 7, 130),
                       ::testing::Values(1, 5, 13, 67)));

TEST(MatrixHelpers, TransposeMatchesElementwise) {
  util::Rng rng(7);
  for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {5, 128}, {37, 19}, {128, 225}}) {
    const Matrix m = random_with_zeros(r, c, rng);
    Matrix t(3, 3, 99.0f);  // stale contents and shape are replaced
    transpose(m, t);
    expect_bits_equal(t, transposed(m));
  }
}

}  // namespace
}  // namespace capes::nn
