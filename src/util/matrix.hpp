// Dense row-major square-friendly matrix used by preference propagation.
//
// Step 3 of the inference pipeline computes W* = sum_{k=2..L} W^k over the
// n x n smoothed preference matrix; at n = 1000 this is the hot loop of the
// whole system, so multiply() is cache-blocked and register-grouped: i and
// k run in 64-wide blocks (one rhs block stays resident in L2 while the
// whole output block sweeps it) and each output strip stays in registers
// across a block's k terms (simd::gemm_accum), instead of a load/store
// round-trip per term. For every output element the k terms still
// accumulate one += at a time in ascending order — exactly the order of
// the naive inner product — so the optimization changes no bits
// (test_matrix pins the two equal). multiply(), multiply_add_scaled(),
// operator+=, operator*= and max_abs_diff()/max_value() run on the
// util/parallel thread pool over disjoint row/element blocks: every output
// element is produced by exactly one task with the same per-element
// arithmetic order as the serial loop, so results are bitwise-identical at
// any thread count. The inner j sweeps (gemm_accum/axpy/add/scale/max) dispatch
// through util/simd, whose AVX2 paths vectorize across output lanes with
// the identical per-element op order — same bits on every backend.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace crowdrank {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Square n x n zero matrix.
  static Matrix zero(std::size_t n);

  /// Square n x n identity.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool is_square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Checked element access (throws on out-of-range). Not for inner loops;
  /// hot paths use operator() / row() which are debug-checked only.
  double at(std::size_t r, std::size_t c) const;

  /// View of row r (bounds-checked in debug builds only; see
  /// CR_DEBUG_EXPECTS in util/error.hpp).
  std::span<const double> row(std::size_t r) const;
  std::span<double> row(std::size_t r);

  /// Raw storage (row-major).
  std::span<const double> data() const { return data_; }
  std::span<double> data() { return data_; }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double scalar);
  friend Matrix operator+(Matrix lhs, const Matrix& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// Cache-tiled matrix product; requires lhs.cols() == rhs.rows().
  static Matrix multiply(const Matrix& lhs, const Matrix& rhs);

  /// Fused `lhs * rhs + scale * addend` in one parallel pass: each row
  /// task finishes its product rows and immediately applies the scaled
  /// addend while the rows are cache-hot. Bitwise-identical to multiply()
  /// followed by a separate scaled add (per element: all k terms first,
  /// then + scale * addend). Requires addend shaped like the product.
  /// Used by the spectral doubling's carry step (core/propagation.cpp).
  static Matrix multiply_add_scaled(const Matrix& lhs, const Matrix& rhs,
                                    double scale, const Matrix& addend);

  /// Sum of powers: W^from + W^{from+1} + ... + W^to (from >= 1).
  /// Used by bounded-length walk propagation.
  static Matrix power_sum(const Matrix& w, std::size_t from, std::size_t to);

  /// Max |a - b| over all entries; requires equal shapes.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  /// Maximum entry, floored at 0.0 (the parallel exact max-reduce starts
  /// from 0.0, matching the historical renormalize-scan semantics on the
  /// non-negative matrices propagation works with). The spectral-walk
  /// w_max/renormalize scans run through this instead of a serial pass
  /// over data().
  double max_value() const;

  bool operator==(const Matrix& other) const = default;

 private:
  /// Shared tiled kernel: product plus optional fused scaled-add epilogue
  /// (addend == nullptr skips it).
  static Matrix multiply_impl(const Matrix& lhs, const Matrix& rhs,
                              double scale, const Matrix* addend);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace crowdrank
