#include "nn/matrix.hpp"

#include <algorithm>

#include "util/thread_pool.hpp"

namespace capes::nn {

namespace {

constexpr std::size_t kColTile = 64;  // columns of C per accumulator tile
constexpr std::size_t kChains = 8;    // matmul_nt's concurrent dot products
constexpr std::size_t kTile = 16;     // transpose tile edge

/// Run fn(i) for i = 0, step, 2*step, ... below n, via the pool when
/// given. Templated (not std::function) so the serial path stays
/// allocation-free — the closure would exceed std::function's inline
/// buffer and hit the heap per call.
template <typename Fn>
void for_rows(std::size_t n, std::size_t step, util::ThreadPool* pool,
              const Fn& fn) {
  const std::size_t count = (n + step - 1) / step;
  if (pool != nullptr && n >= 16) {
    pool->parallel_for(count, [&](std::size_t b) { fn(b * step); });
  } else {
    for (std::size_t b = 0; b < count; ++b) fn(b * step);
  }
}

/// Writes columns [j0, j0 + w) of rows [i0, i0 + R) of C = A·B, where
/// A(i, p) = a[i*si + p*sp]. R rows of accumulators live on the stack (so
/// the compiler can see they alias nothing) and every p adds R scalars of
/// A times one row of B: the j loop runs across independent output columns
/// and vectorises, while each C element takes its terms in increasing-p
/// order. W > 0 fixes w at compile time, which lets full tiles unroll.
template <std::size_t R, std::size_t W>
void gemm_tile(const float* a, std::size_t si, std::size_t sp,
               ConstMatrixView b, std::size_t i0, std::size_t j0,
               std::size_t w, Matrix& c) {
  if constexpr (W > 0) w = W;
  float acc[R][kColTile] = {};
  for (std::size_t p = 0; p < b.rows; ++p) {
    const float* brow = b.row(p) + j0;
    for (std::size_t r = 0; r < R; ++r) {
      const float av = a[(i0 + r) * si + p * sp];
      for (std::size_t j = 0; j < w; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    std::copy(acc[r], acc[r] + w, c.row(i0 + r) + j0);
  }
}

template <std::size_t R>
void gemm_rows(const float* a, std::size_t si, std::size_t sp,
               ConstMatrixView b, std::size_t i0, Matrix& c) {
  for (std::size_t j0 = 0; j0 < b.cols; j0 += kColTile) {
    const std::size_t w = std::min(kColTile, b.cols - j0);
    if (w == kColTile) {
      gemm_tile<R, kColTile>(a, si, sp, b, i0, j0, w, c);
    } else {
      gemm_tile<R, 0>(a, si, sp, b, i0, j0, w, c);
    }
  }
}

/// C = A·B for the n-row A addressed as in gemm_tile, in blocks of
/// kGemmRowBlock rows.
void gemm(const float* a, std::size_t si, std::size_t sp, std::size_t n,
          ConstMatrixView b, Matrix& c, util::ThreadPool* pool) {
  c.resize(n, b.cols);
  for_rows(n, kGemmRowBlock, pool, [&](std::size_t i0) {
    if (i0 + kGemmRowBlock <= n) {
      gemm_rows<kGemmRowBlock>(a, si, sp, b, i0, c);
    } else {
      for (std::size_t i = i0; i < n; ++i) gemm_rows<1>(a, si, sp, b, i, c);
    }
  });
}

}  // namespace

void matmul_nn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool) {
  assert(a.cols == b.rows);
  gemm(a.data, a.cols, 1, a.rows, b, c, pool);
}

void matmul_nt(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool) {
  assert(a.cols == b.cols);
  const std::size_t k = a.cols;
  const std::size_t m = b.rows;
  c.resize(a.rows, m);
  for_rows(a.rows, 1, pool, [&](std::size_t i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    std::size_t j = 0;
    // kChains independent add chains hide the add latency that a single
    // dot product waits on.
    for (; j + kChains <= m; j += kChains) {
      float acc[kChains] = {};
      for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t q = 0; q < kChains; ++q) {
          acc[q] += arow[p] * b.row(j + q)[p];
        }
      }
      std::copy(acc, acc + kChains, crow + j);
    }
    for (; j < m; ++j) {
      const float* brow = b.row(j);
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  });
}

void matmul_tn(ConstMatrixView a, ConstMatrixView b, Matrix& c,
               util::ThreadPool* pool) {
  assert(a.rows == b.rows);
  gemm(a.data, 1, a.cols, a.cols, b, c, pool);
}

void transpose(ConstMatrixView a, Matrix& out) {
  out.resize(a.cols, a.rows);
  for (std::size_t i0 = 0; i0 < a.rows; i0 += kTile) {
    const std::size_t i1 = std::min(a.rows, i0 + kTile);
    for (std::size_t j0 = 0; j0 < a.cols; j0 += kTile) {
      const std::size_t j1 = std::min(a.cols, j0 + kTile);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) out.row(j)[i] = a.row(i)[j];
      }
    }
  }
}

void add_row_vector(Matrix& c, const std::vector<float>& bias) {
  assert(bias.size() == c.cols());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    float* crow = c.row(i);
    for (std::size_t j = 0; j < c.cols(); ++j) crow[j] += bias[j];
  }
}

void column_sums(const Matrix& m, std::vector<float>& out) {
  out.assign(m.cols(), 0.0f);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* row = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) out[j] += row[j];
  }
}

}  // namespace capes::nn
