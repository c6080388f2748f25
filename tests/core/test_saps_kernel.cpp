// Bitwise pins for the SAPS log-cost cache (core/saps_kernel.hpp): every
// cached kernel must agree bit for bit with the uncached safe_log
// formulation it replaced, on randomized closures and on the clamp/floor
// edge cases (zero weights hitting the safe_log floor, weights at exactly
// the completeness-floor clamp, subnormal weights). The once-per-search
// weight-difference start and the Metropolis decision are pinned to the
// formulations they replaced the same way.
#include "core/saps_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/saps.hpp"
#include "graph/hamiltonian.hpp"
#include "saps_reference.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

// Exact comparison through the bit pattern: EXPECT_EQ on doubles would
// also pass for -0.0 == 0.0 and is unclear about intent; the cache
// contract is *bitwise* agreement.
::testing::AssertionResult BitsEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ bitwise";
}

Matrix random_closure(std::size_t n, Rng& rng) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double w = rng.uniform(0.05, 0.95);
      m(i, j) = w;
      m(j, i) = 1.0 - w;
    }
  }
  return m;
}

/// A matrix exercising every branch of safe_log: zeros (floor), exact
/// clamp values, ones, and subnormals, scattered over a random base.
Matrix edge_case_matrix(std::size_t n, Rng& rng) {
  Matrix m = random_closure(n, rng);
  m(0, 1) = 0.0;                       // safe_log floor
  m(1, 0) = 1.0;                       // log(1) == 0 exactly
  m(1, 2) = 0.01;                      // typical completeness_floor clamp
  m(2, 1) = 0.99;                      // 1 - floor clamp
  m(2, 3) = 5e-324;                    // smallest subnormal
  m(3, 2) = 1e-300;                    // deep underflow territory
  return m;
}

class SapsKernelBitwise : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SapsKernelBitwise, CostsMatchSafeLogExactly) {
  // The fill writes the costs over the weights it consumes, as pool
  // chunks: every element, the floor and subnormals included, must hold
  // -safe_log's bits at any width. The second size spans several chunks.
  for (const std::size_t n : {GetParam(), GetParam() + 130}) {
    Rng rng(700 + n);
    const Matrix m = edge_case_matrix(n, rng);
    for (const std::size_t threads : {1, 4}) {
      set_thread_count(threads);
      const SapsCostCache cache{Matrix(m)};
      ASSERT_EQ(cache.size(), n);
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = 0; v < n; ++v) {
          EXPECT_TRUE(BitsEqual(cache.cost(u, v), -math::safe_log(m(u, v))))
              << "edge " << u << " -> " << v << ", n " << n << ", threads "
              << threads;
        }
      }
    }
  }
  set_thread_count(configured_thread_count());
}

TEST_P(SapsKernelBitwise, PathLogCostMatchesUncached) {
  const std::size_t n = GetParam();
  Rng rng(800 + n);
  const Matrix m = edge_case_matrix(n, rng);
  const SapsCostCache cache(m);
  for (int trial = 0; trial < 20; ++trial) {
    const auto perm = rng.permutation(n);
    const Path path(perm.begin(), perm.end());
    EXPECT_TRUE(BitsEqual(path_log_cost(cache, path),
                          path_log_cost(m, path)))
        << "trial " << trial;
  }
}

TEST_P(SapsKernelBitwise, DeltasMatchUncachedFormulation) {
  const std::size_t n = GetParam();
  Rng rng(900 + n);
  const Matrix m = edge_case_matrix(n, rng);
  const SapsCostCache cache(m);
  Path path(n);
  for (std::size_t i = 0; i < n; ++i) path[i] = i;
  rng.shuffle(path);

  for (int trial = 0; trial < 80; ++trial) {
    std::size_t a = rng.uniform_index(n);
    std::size_t b = rng.uniform_index(n);
    if (a > b) std::swap(a, b);
    const std::size_t mid = a + rng.uniform_index(b - a + 1);

    EXPECT_TRUE(BitsEqual(saps_rotate_delta(cache, path, a, mid, b),
                          saps_rotate_delta(m, path, a, mid, b)))
        << "rotate " << a << "," << mid << "," << b;
    EXPECT_TRUE(BitsEqual(saps_reverse_delta(cache, path, a, b),
                          saps_reverse_delta(m, path, a, b)))
        << "reverse " << a << "," << b;
    EXPECT_TRUE(BitsEqual(saps_swap_delta(cache, path, a, b),
                          saps_swap_delta(m, path, a, b)))
        << "swap " << a << "," << b;
    // Swap argument order must not matter either way.
    EXPECT_TRUE(BitsEqual(saps_swap_delta(cache, path, b, a),
                          saps_swap_delta(m, path, b, a)));
  }
}

TEST_P(SapsKernelBitwise, WeightDifferenceOrderMatchesThePerVertexScan) {
  // The row-by-row build must rank exactly as a per-vertex scan of
  // w(v, u) - w(u, v) over ascending u; the quarter-step weights make
  // equal sums, so the tie order is checked too.
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  Matrix quarters(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      quarters(i, j) = 0.25 * static_cast<double>(rng.uniform_index(5));
      quarters(j, i) = 1.0 - quarters(i, j);
    }
  }
  for (const Matrix& m : {edge_case_matrix(n, rng), quarters}) {
    std::vector<double> diff(n, 0.0);
    for (VertexId v = 0; v < n; ++v) {
      for (VertexId u = 0; u < n; ++u) {
        if (u != v) diff[v] += m(v, u) - m(u, v);
      }
    }
    Path expected(n);
    std::iota(expected.begin(), expected.end(), VertexId{0});
    std::stable_sort(expected.begin(), expected.end(),
                     [&](VertexId a, VertexId b) { return diff[a] > diff[b]; });
    EXPECT_EQ(weight_difference_order(m), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SapsKernelBitwise,
                         ::testing::Values(4, 8, 25, 60));

TEST(SapsKernel, MetropolisDecisionEqualsTheClampedExpTest) {
  // exp(-36) > 2^-53 > exp(-40): the smallest nonzero draw is accepted at
  // -36 and rejected at -40, so the exp-free cutoff cannot move far
  // either way unnoticed.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double u : {0.0, 0x1.0p-53, 0.5, 1.0 - 0x1.0p-53}) {
    for (const double x :
         {-0.0, -1.0, -36.0, -40.0, std::nextafter(-40.0, -inf), -745.2,
          -746.0, -inf, std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_EQ(saps_metropolis_accept(u, x),
                u < std::clamp(std::exp(x), 0.0, 1.0))
          << "u = " << u << ", x = " << x;
    }
  }
}

TEST(SapsKernel, GreedyInitialPathMatchesWeightGreedy) {
  // Min-cost hop == max-weight hop: rebuild the legacy weight-matrix
  // greedy walk and require the cached init to reproduce it exactly.
  Rng rng(42);
  const std::size_t n = 30;
  const Matrix m = random_closure(n, rng);
  const SapsCostCache cache(m);

  for (VertexId start = 0; start < 5; ++start) {
    Path expected;
    std::vector<bool> used(n, false);
    VertexId current = start;
    expected.push_back(current);
    used[current] = true;
    for (std::size_t step = 1; step < n; ++step) {
      VertexId best = n;
      double best_w = -1.0;
      for (VertexId next = 0; next < n; ++next) {
        if (!used[next] && m(current, next) > best_w) {
          best_w = m(current, next);
          best = next;
        }
      }
      expected.push_back(best);
      used[best] = true;
      current = best;
    }

    Rng unused(0);
    const Path got = saps_initial_path(cache, /*order=*/{}, start,
                                       SapsInitMode::GreedyNearestNeighbor,
                                       /*force_anchor=*/false, unused);
    EXPECT_EQ(got, expected) << "start " << start;
  }
}

TEST(SapsKernel, InitialPathModesProduceAnchoredPermutations) {
  Rng rng(43);
  const std::size_t n = 12;
  const Matrix m = edge_case_matrix(n, rng);
  const SapsCostCache cache(m);
  for (const auto mode :
       {SapsInitMode::GreedyNearestNeighbor,
        SapsInitMode::WeightDifferenceRanking,
        SapsInitMode::RandomPermutation}) {
    Rng init_rng(7);
    const Path p = saps_initial_path(cache, weight_difference_order(m), 5,
                                     mode, /*force_anchor=*/true, init_rng);
    EXPECT_TRUE(is_permutation_path(p, n));
    EXPECT_EQ(p.front(), 5u);
  }
}

}  // namespace
}  // namespace crowdrank
