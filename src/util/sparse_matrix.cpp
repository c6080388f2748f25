#include "util/sparse_matrix.hpp"

#include <algorithm>
#include <limits>

#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Rows per pool task. Same value as the dense kernels use: chunk
/// boundaries are thread-count independent, and each output row is
/// produced by exactly one task.
constexpr std::size_t kRowGrain = 16;

/// Stored entries per chunk in the flat element-wise passes (scale, max).
constexpr std::size_t kElementGrain = 1 << 14;

/// When a result row touches at least this fraction of the columns, the
/// ascending-column emission scans the accumulator directly instead of
/// sorting the touched list — O(cols) beats O(r log r) for dense-ish rows.
/// The choice depends only on the row's touched count, never on threads,
/// and both paths emit the identical ascending sequence.
constexpr std::size_t kScanDivisor = 4;

}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense) {
  SparseMatrix out(dense.rows(), dense.cols());
  CR_EXPECTS(dense.cols() <= std::numeric_limits<std::uint32_t>::max(),
             "sparse column indices are 32-bit");
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    out.row_ptr_[i] = out.values_.size();
    const auto row = dense.row(i);
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (row[j] != 0.0) {
        out.col_idx_.push_back(static_cast<std::uint32_t>(j));
        out.values_.push_back(row[j]);
      }
    }
  }
  out.row_ptr_[dense.rows()] = out.values_.size();
  return out;
}

SparseMatrix SparseMatrix::from_csr(std::size_t rows, std::size_t cols,
                                    std::span<const std::size_t> row_ptr,
                                    std::span<const std::size_t> col_idx,
                                    std::span<const double> values) {
  CR_EXPECTS(row_ptr.size() == rows + 1, "row_ptr must have rows + 1 slots");
  CR_EXPECTS(col_idx.size() == values.size(),
             "col_idx and values must be parallel");
  CR_EXPECTS(cols <= std::numeric_limits<std::uint32_t>::max(),
             "sparse column indices are 32-bit");
  SparseMatrix out(rows, cols);
  out.row_ptr_.assign(row_ptr.begin(), row_ptr.end());
  out.col_idx_.reserve(col_idx.size());
  for (const std::size_t c : col_idx) {
    CR_EXPECTS(c < cols, "column index out of range");
    out.col_idx_.push_back(static_cast<std::uint32_t>(c));
  }
  out.values_.assign(values.begin(), values.end());
  return out;
}

Matrix SparseMatrix::to_dense() const {
  Matrix out(rows_, cols_, 0.0);
  parallel_for(0, rows_, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      auto row = out.row(i);
      for (std::size_t e = row_ptr_[i]; e < row_ptr_[i + 1]; ++e) {
        row[col_idx_[e]] = values_[e];
      }
    }
  });
  return out;
}

double SparseMatrix::fill_ratio() const {
  if (rows_ == 0 || cols_ == 0) {
    return 0.0;
  }
  return static_cast<double>(values_.size()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

SparseMatrix& SparseMatrix::operator*=(double scalar) {
  parallel_for(0, values_.size(), kElementGrain,
               [&](std::size_t b, std::size_t e) {
                 simd::scale(values_.data() + b, scalar, e - b);
               });
  return *this;
}

double SparseMatrix::max_value() const {
  return parallel_reduce(
      std::size_t{0}, values_.size(), kElementGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        return simd::max0(values_.data() + lo, hi - lo);
      },
      [](double acc, double part) { return std::max(acc, part); });
}

namespace {

/// Staged-dense regime: when the rhs fill reaches this fraction, scattered
/// acc[col] += updates lose to contiguous axpy rows over a dense staging
/// of the rhs (the scatter is ~6x the per-element cost and defeats the
/// vector units; this is what made the n = 100 spmm bench row *slower*
/// than the dense kernel). The threshold depends only on operand shape —
/// never on threads or backend — so results stay machine-independent.
constexpr double kDenseRhsFill = 0.10;

/// Cap on the staged-dense rhs footprint (elements): 1 << 22 is 32 MiB of
/// doubles, enough for every mid-doubling densifying operand while keeping
/// the horizon-truncated n = 10000 workload on the scatter path.
constexpr std::size_t kDenseRhsMaxElems = std::size_t{1} << 22;

/// Full dense fallback: below this many dense-product updates
/// (rows * inner * cols) and with both operands at/above kDenseRhsFill,
/// the whole product routes through the register-blocked dense kernel
/// (to_dense -> Matrix::multiply -> from_dense). At these sizes the dense
/// kernel's efficiency beats any per-entry formulation even counting the
/// representation round-trip — this is what holds the small-n spmm bench
/// row at parity with force-densifying (speedup_floor 1.0). 1 << 24 puts
/// the crossover near n = 250 cubed; the pipeline's large-n doubling
/// states sit far above it and keep their sparse regimes.
constexpr std::size_t kDenseStageMaxFlops = std::size_t{1} << 24;

}  // namespace

/// Gustavson product with an optional fused scaled-add epilogue.
///
/// Three regimes, chosen once per call from operand shape alone (never
/// from thread count or backend, so results stay machine-independent):
///
/// * Dense fallback (small + both operands dense-ish): the whole product
///   routes through the register-blocked dense kernel and the result is
///   re-compressed. from_dense keeps exactly the `!= 0.0` entries, the
///   same drop rule the sparse emitters use, and the dense kernel's
///   per-element ascending-k accumulation (zero terms skipped) is the
///   rounding sequence the regimes below reproduce — so the fallback is
///   value- and pattern-identical to them.
///
/// * Scatter (sparse rhs): a dense accumulator (acc) plus a touched-column
///   list per task. For row i, the lhs row's terms are walked in ascending
///   k (CSR order), and each term scatters a_ik * b_kj into acc — so per
///   output element the adds land in ascending k order, matching the dense
///   kernel's per-element accumulation exactly.
/// * Staged-dense (rhs fill >= kDenseRhsFill): the rhs is materialized
///   densely once per call and each lhs row's entry list drives one
///   simd::spmm_row_accum — indexed accumulation over the staged rhs rows
///   with the output strip held in registers across all entries. Terms
///   land in ascending-k CSR order, and the `+= a * 0.0` terms for absent
///   rhs entries are exactly the ops the dense kernel performs, so this
///   regime is bitwise-identical to Matrix::multiply for *all* operands —
///   and the emission drop of exact-zero sums keeps the stored pattern
///   identical to the scatter regime's.
///
/// The epilogue then folds scale * addend into the same accumulator, after
/// all product terms, matching the dense fused kernel's ordering. Emission
/// walks columns ascending (sorted touched list, accumulator scan for
/// dense-ish rows, or the staged regime's combined scan-and-clear —
/// identical output in every case) and drops exact-zero sums.
///
/// Assembly: each fixed-grain chunk of rows appends into its own staging
/// buffer; buffers are concatenated in chunk order afterwards. Chunk
/// boundaries depend only on kRowGrain, so the result is bitwise-identical
/// at any thread count.
SparseMatrix SparseMatrix::multiply_impl(const SparseMatrix& lhs,
                                         const SparseMatrix& rhs,
                                         double scale,
                                         const SparseMatrix* addend,
                                         std::uint64_t* flops) {
  CR_EXPECTS(lhs.cols_ == rhs.rows_, "inner dimensions must match");
  CR_EXPECTS(addend == nullptr || (addend->rows_ == lhs.rows_ &&
                                   addend->cols_ == rhs.cols_),
             "addend must be shaped like the product");
  const std::size_t n = lhs.rows_;
  const std::size_t m = rhs.cols_;

  // Dense fallback (regime 1). The nested floor divisions make the
  // product bound overflow-safe: cols <= kMax / m / n  <=>  n*cols*m <= kMax.
  const bool dense_stage =
      n > 0 && m > 0 && lhs.cols_ > 0 &&
      lhs.cols_ <= kDenseStageMaxFlops / m / n &&
      lhs.fill_ratio() >= kDenseRhsFill && rhs.fill_ratio() >= kDenseRhsFill;
  if (dense_stage) {
    const Matrix lhs_dense = lhs.to_dense();
    const Matrix rhs_dense = rhs.to_dense();
    SparseMatrix result = from_dense(
        addend == nullptr
            ? Matrix::multiply(lhs_dense, rhs_dense)
            : Matrix::multiply_add_scaled(lhs_dense, rhs_dense, scale,
                                          addend->to_dense()));
    // Dense-kernel accounting: the dense upper bound, like Matrix's own
    // counter (the kernel skips zero lhs entries).
    const std::uint64_t updates = static_cast<std::uint64_t>(n) *
                                  lhs.cols_ * m;
    if (flops != nullptr) {
      *flops = 2 * updates;
    }
    // One sink snapshot for both (see trace::counter).
    if (trace::TraceSink* sink = trace::sink()) {
      sink->metrics().counter("sparse.multiplies").add(1);
      sink->metrics().counter("sparse.flops").add(2 * updates);
    }
    return result;
  }

  struct ChunkOut {
    std::vector<std::uint32_t> cols;
    std::vector<double> vals;
    std::vector<std::size_t> row_nnz;
    std::uint64_t updates = 0;
  };
  const std::size_t chunk_count =
      n == 0 ? 0 : (n + kRowGrain - 1) / kRowGrain;
  std::vector<ChunkOut> chunks(chunk_count);

  // Regime choice: a pure function of the rhs shape (see above).
  const bool staged_dense = m > 0 && lhs.cols_ * m <= kDenseRhsMaxElems &&
                            rhs.fill_ratio() >= kDenseRhsFill;
  const Matrix rhs_dense = staged_dense ? rhs.to_dense() : Matrix();

  parallel_for(0, n, kRowGrain, [&](std::size_t r0, std::size_t r1) {
    ChunkOut& out = chunks[r0 / kRowGrain];
    out.row_nnz.reserve(r1 - r0);
    if (staged_dense) {
      // One simd::spmm_row_accum call per row: the CSR entry list drives
      // indexed accumulation against the staged rhs with the output strip
      // held in registers across all entries (no per-entry re-load of the
      // accumulator, no zero-test branch). Per output element the terms
      // land in ascending-k CSR order — the exact chain one axpy per
      // entry produces.
      std::vector<double> acc(m, 0.0);
      for (std::size_t i = r0; i < r1; ++i) {
        const std::size_t begin = lhs.row_ptr_[i];
        const std::size_t nnz_row = lhs.row_ptr_[i + 1] - begin;
        bool any = nnz_row != 0;
        if (nnz_row != 0) {
          out.updates += nnz_row * m;
          simd::spmm_row_accum(acc.data(), lhs.values_.data() + begin,
                               lhs.col_idx_.data() + begin, nnz_row,
                               rhs_dense.row(0).data(), m, m);
        }
        if (addend != nullptr) {
          any = any || addend->row_ptr_[i + 1] != addend->row_ptr_[i];
          for (std::size_t e = addend->row_ptr_[i];
               e < addend->row_ptr_[i + 1]; ++e) {
            acc[addend->col_idx_[e]] += scale * addend->values_[e];
          }
        }
        const std::size_t before = out.vals.size();
        if (any) {
          // Combined emit-and-clear scan; ascending columns, zero sums
          // dropped, accumulator left clean for the next row.
          for (std::size_t j = 0; j < m; ++j) {
            const double v = acc[j];
            acc[j] = 0.0;
            if (v != 0.0) {
              out.cols.push_back(static_cast<std::uint32_t>(j));
              out.vals.push_back(v);
            }
          }
        }
        out.row_nnz.push_back(out.vals.size() - before);
      }
      return;
    }
    std::vector<double> acc(m, 0.0);
    std::vector<unsigned char> present(m, 0);
    std::vector<std::uint32_t> touched;
    for (std::size_t i = r0; i < r1; ++i) {
      touched.clear();
      for (std::size_t ae = lhs.row_ptr_[i]; ae < lhs.row_ptr_[i + 1];
           ++ae) {
        const double a = lhs.values_[ae];
        const std::size_t k = lhs.col_idx_[ae];
        const std::size_t b_begin = rhs.row_ptr_[k];
        const std::size_t b_end = rhs.row_ptr_[k + 1];
        out.updates += b_end - b_begin;
        for (std::size_t be = b_begin; be < b_end; ++be) {
          const std::uint32_t j = rhs.col_idx_[be];
          const double term = a * rhs.values_[be];
          if (present[j] == 0) {
            present[j] = 1;
            touched.push_back(j);
            acc[j] = term;
          } else {
            acc[j] += term;
          }
        }
      }
      if (addend != nullptr) {
        // Fused epilogue: after every product term, exactly like the dense
        // kernel's separate post-product sweep.
        for (std::size_t e = addend->row_ptr_[i];
             e < addend->row_ptr_[i + 1]; ++e) {
          const std::uint32_t j = addend->col_idx_[e];
          const double term = scale * addend->values_[e];
          if (present[j] == 0) {
            present[j] = 1;
            touched.push_back(j);
            acc[j] = term;
          } else {
            acc[j] += term;
          }
        }
      }
      const std::size_t before = out.vals.size();
      if (touched.size() >= m / kScanDivisor) {
        // Dense-ish row: one ascending scan over the accumulator.
        for (std::size_t j = 0; j < m; ++j) {
          if (present[j] != 0) {
            present[j] = 0;
            if (acc[j] != 0.0) {
              out.cols.push_back(static_cast<std::uint32_t>(j));
              out.vals.push_back(acc[j]);
            }
          }
        }
      } else {
        std::sort(touched.begin(), touched.end());
        for (const std::uint32_t j : touched) {
          present[j] = 0;
          if (acc[j] != 0.0) {
            out.cols.push_back(j);
            out.vals.push_back(acc[j]);
          }
        }
      }
      out.row_nnz.push_back(out.vals.size() - before);
    }
  });

  // Stitch: row_ptr from per-row counts, then bulk-append each chunk's
  // staging buffers in chunk (== row) order.
  SparseMatrix result(n, m);
  std::uint64_t updates = 0;
  std::size_t total = 0;
  for (const ChunkOut& c : chunks) {
    total += c.vals.size();
    updates += c.updates;
  }
  result.col_idx_.reserve(total);
  result.values_.reserve(total);
  std::size_t row = 0;
  std::size_t offset = 0;
  for (const ChunkOut& c : chunks) {
    for (const std::size_t nnz : c.row_nnz) {
      result.row_ptr_[row++] = offset;
      offset += nnz;
    }
    result.col_idx_.insert(result.col_idx_.end(), c.cols.begin(),
                           c.cols.end());
    result.values_.insert(result.values_.end(), c.vals.begin(),
                          c.vals.end());
  }
  for (; row <= n; ++row) {
    result.row_ptr_[row] = offset;
  }

  if (flops != nullptr) {
    *flops = 2 * updates;
  }
  if (trace::TraceSink* sink = trace::sink()) {
    sink->metrics().counter("sparse.multiplies").add(1);
    sink->metrics().counter("sparse.flops").add(2 * updates);
  }
  return result;
}

SparseMatrix SparseMatrix::multiply(const SparseMatrix& lhs,
                                    const SparseMatrix& rhs,
                                    std::uint64_t* flops) {
  return multiply_impl(lhs, rhs, 0.0, nullptr, flops);
}

SparseMatrix SparseMatrix::multiply_add_scaled(const SparseMatrix& lhs,
                                               const SparseMatrix& rhs,
                                               double scale,
                                               const SparseMatrix& addend,
                                               std::uint64_t* flops) {
  return multiply_impl(lhs, rhs, scale, &addend, flops);
}

}  // namespace crowdrank
