// Unit + property tests for SAPS (paper §V-D2, Algorithms 2-3).
#include "core/saps.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/hamiltonian.hpp"
#include "saps_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

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

TEST(SapsMoves, RotatePreservesPermutation) {
  Path p{0, 1, 2, 3, 4, 5};
  saps_rotate(p, 1, 3, 4);
  EXPECT_EQ(p, (Path{0, 3, 4, 1, 2, 5}));
  EXPECT_TRUE(is_permutation_path(p, 6));
}

TEST(SapsMoves, RotateWithMiddleAtFirstIsNoop) {
  Path p{0, 1, 2, 3};
  saps_rotate(p, 1, 1, 3);
  EXPECT_EQ(p, (Path{0, 1, 2, 3}));
}

TEST(SapsMoves, ReverseSegment) {
  Path p{0, 1, 2, 3, 4};
  saps_reverse(p, 1, 3);
  EXPECT_EQ(p, (Path{0, 3, 2, 1, 4}));
}

TEST(SapsMoves, SwapTwoNodes) {
  Path p{0, 1, 2, 3};
  saps_swap(p, 0, 3);
  EXPECT_EQ(p, (Path{3, 1, 2, 0}));
}

TEST(SapsMoves, IndexPreconditions) {
  Path p{0, 1, 2};
  EXPECT_THROW(saps_rotate(p, 2, 1, 2), Error);
  EXPECT_THROW(saps_rotate(p, 0, 1, 3), Error);
  EXPECT_THROW(saps_reverse(p, 2, 1), Error);
  EXPECT_THROW(saps_reverse(p, 0, 3), Error);
  EXPECT_THROW(saps_swap(p, 0, 3), Error);
}

TEST(SapsMoves, RandomMovesAlwaysPreservePermutation) {
  Rng rng(31);
  Path p(20);
  for (std::size_t i = 0; i < 20; ++i) p[i] = i;
  for (int step = 0; step < 500; ++step) {
    std::size_t a = rng.uniform_index(20);
    std::size_t b = rng.uniform_index(20);
    if (a > b) std::swap(a, b);
    switch (step % 3) {
      case 0: {
        const std::size_t mid = a + rng.uniform_index(b - a + 1);
        saps_rotate(p, a, mid, b);
        break;
      }
      case 1:
        saps_reverse(p, a, b);
        break;
      default:
        saps_swap(p, a, b);
    }
    ASSERT_TRUE(is_permutation_path(p, 20)) << "step " << step;
  }
}

class SapsDeltaProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SapsDeltaProperty, DeltasMatchBruteForceRecompute) {
  const std::size_t n = GetParam();
  Rng rng(500 + n);
  const Matrix m = random_closure(n, rng);
  Path path(n);
  for (std::size_t i = 0; i < n; ++i) path[i] = i;
  rng.shuffle(path);
  const double base = path_log_cost(m, path);

  for (int trial = 0; trial < 60; ++trial) {
    std::size_t a = rng.uniform_index(n);
    std::size_t b = rng.uniform_index(n);
    if (a > b) std::swap(a, b);
    const std::size_t mid = a + rng.uniform_index(b - a + 1);

    Path rotated = path;
    saps_rotate(rotated, a, mid, b);
    EXPECT_NEAR(saps_rotate_delta(m, path, a, mid, b),
                path_log_cost(m, rotated) - base, 1e-9)
        << "rotate " << a << "," << mid << "," << b;

    Path reversed = path;
    saps_reverse(reversed, a, b);
    EXPECT_NEAR(saps_reverse_delta(m, path, a, b),
                path_log_cost(m, reversed) - base, 1e-9)
        << "reverse " << a << "," << b;

    Path swapped = path;
    saps_swap(swapped, a, b);
    EXPECT_NEAR(saps_swap_delta(m, path, a, b),
                path_log_cost(m, swapped) - base, 1e-9)
        << "swap " << a << "," << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SapsDeltaProperty,
                         ::testing::Values(2, 3, 4, 8, 25, 80));

TEST(SapsDelta, NoOpMovesAreZero) {
  Rng rng(99);
  const Matrix m = random_closure(6, rng);
  const Path path{0, 1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(saps_rotate_delta(m, path, 1, 1, 4), 0.0);
  EXPECT_DOUBLE_EQ(saps_reverse_delta(m, path, 3, 3), 0.0);
  EXPECT_DOUBLE_EQ(saps_swap_delta(m, path, 2, 2), 0.0);
}

TEST(SapsDelta, SwapIsSymmetricInArguments) {
  Rng rng(100);
  const Matrix m = random_closure(8, rng);
  const Path path{4, 1, 7, 0, 3, 6, 2, 5};
  EXPECT_DOUBLE_EQ(saps_swap_delta(m, path, 1, 6),
                   saps_swap_delta(m, path, 6, 1));
}

TEST(Saps, FindsOptimumOnSmallClosures) {
  Rng rng(32);
  int optimal_hits = 0;
  const int trials = 15;
  for (int trial = 0; trial < trials; ++trial) {
    const Matrix m = random_closure(7, rng);
    SapsConfig config;
    config.iterations = 1500;
    config.restarts = 4;
    Rng search_rng(100 + trial);
    const SapsResult saps = saps_search(m, config, search_rng);
    const auto hk = max_probability_hamiltonian_path(m);
    ASSERT_TRUE(hk.has_value());
    const double exact = -path_log_cost(m, *hk);
    EXPECT_LE(-saps.log_cost, exact + 1e-9);
    if (std::abs(-saps.log_cost - exact) < 1e-9) ++optimal_hits;
  }
  // The heuristic should find the global optimum almost always at n = 7.
  EXPECT_GE(optimal_hits, trials - 2);
}

TEST(Saps, OutputIsAlwaysValidPermutation) {
  Rng rng(33);
  for (const std::size_t n : {2u, 3u, 10u, 40u}) {
    const Matrix m = random_closure(n, rng);
    Rng search_rng(n);
    const SapsResult r = saps_search(m, {}, search_rng);
    EXPECT_TRUE(is_permutation_path(r.best_path, n));
    EXPECT_GT(r.moves_proposed, 0u);
    EXPECT_NEAR(r.probability, std::exp(-r.log_cost), 1e-12);
  }
}

TEST(Saps, DeterministicGivenSeed) {
  Rng rng(34);
  const Matrix m = random_closure(12, rng);
  Rng a(7);
  Rng b(7);
  const SapsResult ra = saps_search(m, {}, a);
  const SapsResult rb = saps_search(m, {}, b);
  EXPECT_EQ(ra.best_path, rb.best_path);
  EXPECT_DOUBLE_EQ(ra.log_cost, rb.log_cost);
}

TEST(Saps, MoreIterationsNeverHurt) {
  Rng rng(35);
  const Matrix m = random_closure(15, rng);
  SapsConfig small;
  small.iterations = 50;
  SapsConfig large;
  large.iterations = 3000;
  Rng ra(9);
  Rng rb(9);
  const double cost_small = saps_search(m, small, ra).log_cost;
  const double cost_large = saps_search(m, large, rb).log_cost;
  EXPECT_LE(cost_large, cost_small + 1e-9);
}

TEST(Saps, PaperModeRestartsFromEveryVertex) {
  Rng rng(36);
  const Matrix m = random_closure(6, rng);
  SapsConfig config;
  config.paper_mode = true;
  config.iterations = 50;
  Rng search_rng(1);
  const SapsResult r = saps_search(m, config, search_rng);
  EXPECT_EQ(r.restarts_run, 6u);
}

TEST(Saps, InitModesAllWork) {
  Rng rng(37);
  const Matrix m = random_closure(10, rng);
  for (const auto mode :
       {SapsInitMode::GreedyNearestNeighbor,
        SapsInitMode::WeightDifferenceRanking,
        SapsInitMode::RandomPermutation}) {
    SapsConfig config;
    config.init_mode = mode;
    config.iterations = 200;
    Rng search_rng(2);
    const SapsResult r = saps_search(m, config, search_rng);
    EXPECT_TRUE(is_permutation_path(r.best_path, 10));
  }
}

TEST(Saps, MoveTogglesRespected) {
  Rng rng(38);
  const Matrix m = random_closure(8, rng);
  SapsConfig only_swap;
  only_swap.use_rotate = false;
  only_swap.use_reverse = false;
  Rng search_rng(3);
  const SapsResult r = saps_search(m, only_swap, search_rng);
  EXPECT_TRUE(is_permutation_path(r.best_path, 8));
  SapsConfig none;
  none.use_rotate = none.use_reverse = none.use_swap = false;
  EXPECT_THROW(saps_search(m, none, search_rng), Error);
}

TEST(Saps, ValidatesConfig) {
  Rng rng(39);
  const Matrix m = random_closure(5, rng);
  SapsConfig bad;
  bad.iterations = 0;
  EXPECT_THROW(saps_search(m, bad, rng), Error);
  bad = {};
  bad.initial_temperature = 0.0;
  EXPECT_THROW(saps_search(m, bad, rng), Error);
  bad = {};
  bad.cooling_rate = 1.5;
  EXPECT_THROW(saps_search(m, bad, rng), Error);
  bad = {};
  bad.restarts = 0;
  EXPECT_THROW(saps_search(m, bad, rng), Error);
}

TEST(Saps, GreedyInitAloneIsWorseOrEqual) {
  // Annealing must not end worse than its own greedy initialization.
  Rng rng(40);
  const Matrix m = random_closure(20, rng);
  // Reconstruct the greedy-from-0 path cost.
  Path greedy;
  std::vector<bool> used(20, false);
  VertexId current = 0;
  greedy.push_back(0);
  used[0] = true;
  for (std::size_t step = 1; step < 20; ++step) {
    VertexId best = 20;
    double best_w = -1.0;
    for (VertexId next = 0; next < 20; ++next) {
      if (!used[next] && m(current, next) > best_w) {
        best_w = m(current, next);
        best = next;
      }
    }
    greedy.push_back(best);
    used[best] = true;
    current = best;
  }
  const double greedy_cost = path_log_cost(m, greedy);
  SapsConfig config;
  config.restarts = 1;
  Rng search_rng(4);
  const SapsResult r = saps_search(m, config, search_rng);
  EXPECT_LE(r.log_cost, greedy_cost + 1e-9);
}

}  // namespace
}  // namespace crowdrank
