#include "util/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Rows handed to one pool task at a time. Fixed (thread-count independent)
/// so chunk boundaries never shift; each row is produced by exactly one
/// task either way, so this only affects load balance.
constexpr std::size_t kRowGrain = 16;

/// Elements per chunk for the flat element-wise kernels.
constexpr std::size_t kElementGrain = 1 << 14;

/// Below this many multiply-adds the pool dispatch overhead is not worth
/// paying; run the plain serial loop.
constexpr std::size_t kSerialFlopLimit = 1 << 18;

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::zero(std::size_t n) { return Matrix(n, n, 0.0); }

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

double Matrix::at(std::size_t r, std::size_t c) const {
  CR_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
  return (*this)(r, c);
}

std::span<const double> Matrix::row(std::size_t r) const {
  CR_DEBUG_EXPECTS(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  CR_DEBUG_EXPECTS(r < rows_, "row index out of range");
  return {data_.data() + r * cols_, cols_};
}

Matrix& Matrix::operator+=(const Matrix& other) {
  CR_EXPECTS(rows_ == other.rows_ && cols_ == other.cols_,
             "matrix shapes must match for +=");
  parallel_for(0, data_.size(), kElementGrain,
               [&](std::size_t b, std::size_t e) {
                 simd::add(data_.data() + b, other.data_.data() + b, e - b);
               });
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  parallel_for(0, data_.size(), kElementGrain,
               [&](std::size_t b, std::size_t e) {
                 simd::scale(data_.data() + b, scalar, e - b);
               });
  return *this;
}

namespace {

/// Block edge for the product's i/k loops: a 64-row rhs block is
/// 64 * cols * 8 bytes (512 KiB at n = 1000), which stays resident in a
/// megabyte-class L2 while all 64 rows of the output block sweep over it.
constexpr std::size_t kTile = 64;

}  // namespace

/// Shared kernel behind multiply() / multiply_add_scaled(): the product
/// plus an optional fused `scale * addend` epilogue per output row.
///
/// Structure: rows are block-distributed across the pool; inside a task,
/// i and k run in kTile blocks (rhs block reuse in L2), and each (row,
/// k-block) pair is one simd::gemm_accum call: the strip-blocked kernel
/// holds register accumulators across the block's whole k loop instead of
/// re-loading the output row per term. For every output element the k
/// terms still accumulate one `+=` at a time in ascending k order (zero
/// lhs entries skipped) — blocking only batches the loads — so the result
/// is bitwise-identical to the one-term-per-sweep kernel
/// (bench/perf_pipeline asserts this every run), and the epilogue lands
/// after all k terms, matching the separate-pass formulation. Each row is
/// produced by exactly one task.
Matrix Matrix::multiply_impl(const Matrix& lhs, const Matrix& rhs,
                             double scale, const Matrix* addend) {
  CR_EXPECTS(lhs.cols_ == rhs.rows_, "inner dimensions must match");
  const std::size_t n = lhs.rows_;
  const std::size_t k_dim = lhs.cols_;
  const std::size_t m = rhs.cols_;
  CR_EXPECTS(addend == nullptr ||
                 (addend->rows_ == n && addend->cols_ == m),
             "addend must be shaped like the product");
  // Dense-kernel accounting for the tracing layer: one relaxed-atomic load
  // when tracing is off, two sharded counter adds when on. The flop figure
  // is the dense upper bound (the kernel skips zero lhs entries). Both adds
  // go through one sink snapshot (see trace::counter).
  if (trace::TraceSink* sink = trace::sink()) {
    sink->metrics().counter("matrix.multiplies").add(1);
    sink->metrics().counter("matrix.flops").add(
        static_cast<std::uint64_t>(2) * n * k_dim * m);
  }
  Matrix out(n, m, 0.0);
  const auto row_block = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t ii = r0; ii < r1; ii += kTile) {
      const std::size_t i_end = std::min(ii + kTile, r1);
      for (std::size_t kk = 0; kk < k_dim; kk += kTile) {
        const std::size_t k_end = std::min(kk + kTile, k_dim);
        simd::gemm_accum(out.data_.data() + ii * m, m, i_end - ii,
                         lhs.data_.data() + ii * k_dim + kk, k_dim,
                         rhs.data_.data() + kk * m, k_end - kk, m, m);
      }
    }
    if (addend != nullptr) {
      // Fused epilogue: the rows this task just produced are still hot.
      for (std::size_t i = r0; i < r1; ++i) {
        simd::axpy(out.data_.data() + i * m, addend->data_.data() + i * m,
                   scale, m);
      }
    }
  };
  if (n * k_dim * m < kSerialFlopLimit) {
    row_block(0, n);
  } else {
    parallel_for(0, n, kRowGrain, row_block);
  }
  return out;
}

Matrix Matrix::multiply(const Matrix& lhs, const Matrix& rhs) {
  return multiply_impl(lhs, rhs, 0.0, nullptr);
}

Matrix Matrix::multiply_add_scaled(const Matrix& lhs, const Matrix& rhs,
                                   double scale, const Matrix& addend) {
  return multiply_impl(lhs, rhs, scale, &addend);
}

Matrix Matrix::power_sum(const Matrix& w, std::size_t from, std::size_t to) {
  CR_EXPECTS(w.is_square(), "power_sum requires a square matrix");
  CR_EXPECTS(from >= 1 && from <= to, "power_sum requires 1 <= from <= to");
  Matrix current = w;  // w^1
  for (std::size_t p = 2; p <= from; ++p) {
    current = multiply(current, w);
  }
  Matrix acc = current;  // w^from
  for (std::size_t p = from + 1; p <= to; ++p) {
    current = multiply(current, w);
    acc += current;
  }
  return acc;
}

double Matrix::max_value() const {
  // max is an exact (rounding-free) reduction, so the chunked parallel
  // combine matches a serial scan bit for bit.
  return parallel_reduce(
      std::size_t{0}, data_.size(), kElementGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        return simd::max0(data_.data() + lo, hi - lo);
      },
      [](double acc, double part) { return std::max(acc, part); });
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  CR_EXPECTS(a.rows_ == b.rows_ && a.cols_ == b.cols_,
             "matrix shapes must match for max_abs_diff");
  // max is an exact (rounding-free) reduction, so the chunked parallel
  // combine matches the serial scan bit for bit.
  return parallel_reduce(
      std::size_t{0}, a.data_.size(), kElementGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        return simd::max_abs_diff(a.data_.data() + lo, b.data_.data() + lo,
                                  hi - lo);
      },
      [](double acc, double part) { return std::max(acc, part); });
}

}  // namespace crowdrank
