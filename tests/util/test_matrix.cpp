// Unit tests for the dense matrix (Step 3's propagation workhorse).
#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = rng.uniform();
    }
  }
  return m;
}

Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += a(i, k) * b(k, j);
      }
      out(i, j) = acc;
    }
  }
  return out;
}

TEST(Matrix, ConstructionAndFill) {
  Matrix m(3, 4, 2.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_FALSE(m.is_square());
  EXPECT_DOUBLE_EQ(m(2, 3), 2.5);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix id = Matrix::identity(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, CheckedAccessThrows) {
  const Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Matrix, RowViewsSeeStorage) {
  Matrix m(2, 3);
  m(1, 2) = 9.0;
  EXPECT_DOUBLE_EQ(m.row(1)[2], 9.0);
  m.row(0)[0] = 4.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
#if CROWDRANK_DEBUG_CHECKS
  // row() is a hot-path accessor: its bounds check exists in debug builds
  // only (at() stays checked in every build).
  EXPECT_THROW(m.row(2), Error);
#endif
}

TEST(Matrix, AdditionAndScaling) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
  const Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 1), 8.0);
  Matrix wrong(3, 2);
  EXPECT_THROW(a += wrong, Error);
}

TEST(Matrix, MultiplyIdentityIsNoop) {
  Rng rng(1);
  const Matrix m = random_matrix(5, 5, rng);
  const Matrix out = Matrix::multiply(m, Matrix::identity(5));
  EXPECT_LT(Matrix::max_abs_diff(m, out), 1e-15);
}

// The tiled product sums each element in ascending k, exactly as the
// naive inner product does, so the two agree bit for bit.
TEST(Matrix, MultiplyMatchesNaiveSquare) {
  Rng rng(2);
  for (const std::size_t n : {1u, 2u, 7u, 33u, 70u, 129u}) {
    const Matrix a = random_matrix(n, n, rng);
    const Matrix b = random_matrix(n, n, rng);
    EXPECT_EQ(Matrix::max_abs_diff(Matrix::multiply(a, b),
                                   naive_multiply(a, b)),
              0.0)
        << "n=" << n;
  }
}

TEST(Matrix, MultiplyMatchesNaiveRectangular) {
  Rng rng(3);
  const Matrix a = random_matrix(13, 70, rng);
  const Matrix b = random_matrix(70, 29, rng);
  EXPECT_EQ(
      Matrix::max_abs_diff(Matrix::multiply(a, b), naive_multiply(a, b)),
      0.0);
}

TEST(Matrix, MultiplyRejectsShapeMismatch) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(Matrix::multiply(a, b), Error);
}

TEST(Matrix, PowerSumSinglePower) {
  Rng rng(4);
  const Matrix w = random_matrix(6, 6, rng);
  const Matrix w2 = Matrix::power_sum(w, 2, 2);
  EXPECT_LT(Matrix::max_abs_diff(w2, naive_multiply(w, w)), 1e-10);
}

TEST(Matrix, PowerSumAccumulates) {
  Rng rng(5);
  const Matrix w = random_matrix(5, 5, rng);
  const Matrix sum = Matrix::power_sum(w, 1, 3);
  Matrix expected = w;
  const Matrix w2 = naive_multiply(w, w);
  const Matrix w3 = naive_multiply(w2, w);
  expected += w2;
  expected += w3;
  EXPECT_LT(Matrix::max_abs_diff(sum, expected), 1e-9);
}

TEST(Matrix, PowerSumValidatesArguments) {
  const Matrix rect(2, 3);
  EXPECT_THROW(Matrix::power_sum(rect, 1, 2), Error);
  const Matrix sq(3, 3);
  EXPECT_THROW(Matrix::power_sum(sq, 0, 2), Error);
  EXPECT_THROW(Matrix::power_sum(sq, 3, 2), Error);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b(1, 0) = -2.0;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 3.0);
  const Matrix c(3, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, c), Error);
}

TEST(Matrix, SparseRowsSkippedCorrectly) {
  // The blocked kernel skips zero a(i,k); make sure that shortcut is sound.
  Matrix a(3, 3, 0.0);
  a(0, 1) = 2.0;
  Matrix b(3, 3, 0.0);
  b(1, 2) = 3.0;
  const Matrix out = Matrix::multiply(a, b);
  EXPECT_DOUBLE_EQ(out(0, 2), 6.0);
  double total = 0.0;
  for (const double v : out.data()) total += v;
  EXPECT_DOUBLE_EQ(total, 6.0);
}

}  // namespace
}  // namespace crowdrank
