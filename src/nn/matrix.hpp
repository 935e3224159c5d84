#pragma once
// Dense row-major float matrices and the small set of GEMM kernels needed
// by a multi-layer perceptron.
//
// Summation-order contract: every kernel computes each output element as
// a strict-order scalar dot product would — it starts from +0.0f and adds
// the products a*b for p = 0, 1, ..., k-1 in increasing-k order, one IEEE
// multiply and one IEEE add per term, with no contraction (the build pins
// -ffp-contract=off) and no reassociation. Speed comes from running SIMD
// lanes across independent output columns, never along the reduction, so
// results are bit-identical at any vector width, row blocking or thread
// count. (Products with an exact-zero factor are not skipped; for finite
// operands that changes nothing, since adding ±0 to an accumulator that
// started at +0.0f leaves it unchanged.)

#include <cassert>
#include <cstddef>
#include <vector>

namespace capes::util {
class ThreadPool;
}

namespace capes::nn {

/// Read-only, non-owning view of a row-major float matrix, e.g. a layer's
/// weights, which live in a flat Parameter vector.
struct ConstMatrixView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;

  const float* row(std::size_t r) const { return data + r * cols; }
};

/// Row-major float matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  float& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  void fill(float v) { data_.assign(data_.size(), v); }
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0f);
  }

  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  operator ConstMatrixView() const { return {data_.data(), rows_, cols_}; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Rows of A per register block in matmul_nn/matmul_tn. A batch with fewer
/// rows gains nothing from transposing B, so Dense::forward sends it to
/// matmul_nt instead.
inline constexpr std::size_t kGemmRowBlock = 4;

/// C = A[n,k] * B[k,m]. C is resized. `pool` may be null (single-threaded).
/// Rows of A are blocked kGemmRowBlock at a time; the pool splits the
/// blocks.
void matmul_nn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool = nullptr);

/// C = A[n,k] * B[m,k]^T -> [n,m], as eight independent per-column dot
/// products at a time. Needs no transpose of B, so it suits few rows of A
/// (acting on one observation); larger batches are faster through
/// transpose() + matmul_nn, which gives the same bits.
void matmul_nt(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool = nullptr);

/// C = A[k,n]^T * B[k,m] -> [n,m], blocked like matmul_nn.
void matmul_tn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool = nullptr);

/// out = A^T ([a.cols, a.rows]), copied in cache-sized tiles.
void transpose(ConstMatrixView a, Matrix& out);

/// Add row vector `bias` (length = c.cols()) to each row of `c`.
void add_row_vector(Matrix& c, const std::vector<float>& bias);

/// Column-wise sums of `m` into `out` (resized to m.cols()).
void column_sums(const Matrix& m, std::vector<float>& out);

}  // namespace capes::nn
