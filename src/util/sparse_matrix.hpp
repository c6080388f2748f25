// Compressed-sparse-row matrix for the sparse-first phase of preference
// propagation (Step 3).
//
// The smoothed preference graph carries only l = O(n) direct edges (the
// budget constraint B = c*l, paper §IV), so the early spectral-doubling
// steps multiply matrices whose fill is a fraction of a percent. Running
// them densely costs O(n^3) per squaring regardless; this type provides
// the CSR kernels that cost O(flops actually performed) instead.
//
// Determinism contract (the same one util/matrix.hpp documents for the
// dense kernels): every output row is produced by exactly one pool task,
// chunk boundaries depend only on a fixed grain, and for every output
// element the k terms accumulate one += at a time in ascending k order —
// exactly the order of the dense kernel, which also skips zero lhs terms.
// Because all matrices on this path are non-negative, the dense kernel's
// extra `+= a * 0.0` no-ops cannot change a bit (x + 0.0 == x for x >= 0),
// so SparseMatrix::multiply is *bitwise-identical* to Matrix::multiply on
// the same operands at any thread count (tests/util/test_sparse_matrix.cpp
// pins this property; bench/perf_pipeline asserts it every run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.hpp"

namespace crowdrank {

/// Row-major CSR matrix of doubles. Stored entries are nonzero, and each
/// row's column indices are strictly ascending. Computed zeros (exact 0.0
/// sums, e.g. from underflowed products) are dropped on emission — a
/// stored zero and an absent entry are indistinguishable to every kernel
/// here and to to_dense().
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// rows x cols matrix with no stored entries.
  SparseMatrix(std::size_t rows, std::size_t cols);

  /// Builds from a dense matrix, storing exactly the entries != 0.0.
  static SparseMatrix from_dense(const Matrix& dense);

  /// Builds from raw CSR arrays (e.g. a graph CsrAdjacency view): row r's
  /// entries are (col_idx[i], values[i]) for i in [row_ptr[r],
  /// row_ptr[r + 1]), columns strictly ascending, values nonzero.
  static SparseMatrix from_csr(std::size_t rows, std::size_t cols,
                               std::span<const std::size_t> row_ptr,
                               std::span<const std::size_t> col_idx,
                               std::span<const double> values);

  /// Dense materialization: absent entries become 0.0.
  Matrix to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// Stored-entry fraction of the full rows x cols grid; 0 for an empty
  /// shape. This is the quantity the hybrid propagator monitors to decide
  /// when dense kernels win (propagation.fill_ratio).
  double fill_ratio() const;

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::uint32_t> col_indices() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  /// Scales every stored entry. Matches the dense `Matrix::operator*=`
  /// entry-for-entry (absent entries are 0.0 * s == 0.0 either way).
  SparseMatrix& operator*=(double scalar);

  /// Maximum stored entry, floored at 0.0 — identical to the dense
  /// max_value() on the non-negative matrices propagation works with
  /// (absent entries are zeros, and the dense reduce is floored at 0.0
  /// too). Exact max-reduce, bitwise-stable at any thread count.
  double max_value() const;

  /// Gustavson row-parallel CSR x CSR product. Requires
  /// lhs.cols() == rhs.rows(). When `flops` is non-null it receives the
  /// number of multiply-add updates actually performed (2 flops each).
  static SparseMatrix multiply(const SparseMatrix& lhs,
                               const SparseMatrix& rhs,
                               std::uint64_t* flops = nullptr);

  /// Fused `lhs * rhs + scale * addend`, the spectral doubling's carry
  /// step. Per output element: all product terms first (ascending k), then
  /// + scale * addend — the same order as the dense
  /// Matrix::multiply_add_scaled, hence bitwise-identical to it. Requires
  /// addend shaped like the product.
  static SparseMatrix multiply_add_scaled(const SparseMatrix& lhs,
                                          const SparseMatrix& rhs,
                                          double scale,
                                          const SparseMatrix& addend,
                                          std::uint64_t* flops = nullptr);

  bool operator==(const SparseMatrix& other) const = default;

 private:
  static SparseMatrix multiply_impl(const SparseMatrix& lhs,
                                    const SparseMatrix& rhs, double scale,
                                    const SparseMatrix* addend,
                                    std::uint64_t* flops);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;    ///< size rows_ + 1 (empty shape: {})
  std::vector<std::uint32_t> col_idx_;  ///< size nnz, ascending per row
  std::vector<double> values_;          ///< size nnz, parallel to col_idx_
};

}  // namespace crowdrank
