// Unit + property tests for TAPS (paper §V-D1) against exact oracles.
#include "core/taps.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../graph/dense_reference.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/preference_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

/// Random complete pair-normalized closure (what Step 3 produces).
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

TEST(Taps, FindsObviousOptimum) {
  // Strong chain 0 -> 1 -> 2 -> 3.
  Matrix m(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      if (i != j) m(i, j) = 0.2;
    }
  }
  m(0, 1) = m(1, 2) = m(2, 3) = 0.9;
  const TapsResult r = taps_search(m);
  ASSERT_EQ(r.best_paths.size(), 1u);
  EXPECT_EQ(r.best_paths[0], (Path{0, 1, 2, 3}));
  EXPECT_NEAR(r.probability, 0.9 * 0.9 * 0.9, 1e-12);
}

TEST(Taps, MatchesHeldKarpOnRandomClosures) {
  Rng rng(21);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 5 + trial % 5;  // 5..9
    const Matrix m = random_closure(n, rng);
    const TapsResult taps = taps_search(m);
    const auto hk = max_probability_hamiltonian_path(m);
    ASSERT_TRUE(hk.has_value());
    EXPECT_NEAR(taps.log_probability,
                -path_log_cost(m, *hk), 1e-9)
        << "trial " << trial;
    // Every returned path must achieve the reported probability.
    for (const Path& p : taps.best_paths) {
      EXPECT_NEAR(std::log(path_probability(m, p)), taps.log_probability,
                  1e-9);
    }
  }
}

TEST(Taps, MatchesBruteForceEnumeration) {
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    const Matrix m = random_closure(n, rng);
    const PreferenceGraph g = graph_from_matrix(m);
    double best = 0.0;
    for (const Path& p : enumerate_hamiltonian_paths(g)) {
      best = std::max(best, path_probability(m, p));
    }
    const TapsResult taps = taps_search(m);
    EXPECT_NEAR(taps.probability, best, 1e-12) << "trial " << trial;
  }
}

TEST(Taps, CollectsTiePaths) {
  // Symmetric 3-object closure with all weights 0.5: every one of the 6
  // permutations ties at probability 0.25.
  Matrix m(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) m(i, j) = 0.5;
    }
  }
  const TapsResult r = taps_search(m);
  EXPECT_EQ(r.best_paths.size(), 6u);
  EXPECT_NEAR(r.probability, 0.25, 1e-12);
}

TEST(Taps, EarlyTerminationBeatsFullEnumeration) {
  // With a sharply peaked optimum, TAPS should expand far fewer states
  // than the total path space n!/... — check expansions stay modest.
  Matrix m(8, 8, 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i != j) m(i, j) = 0.05;
    }
  }
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    m(i, i + 1) = 0.95;
    m(i + 1, i) = 0.05;
  }
  const TapsResult r = taps_search(m);
  ASSERT_EQ(r.best_paths[0], (Path{0, 1, 2, 3, 4, 5, 6, 7}));
  // 8! = 40320 full paths; the peaked instance needs a small fraction.
  EXPECT_LT(r.expansions, 5000u);
}

TEST(Taps, ExpansionCapThrows) {
  Rng rng(23);
  const Matrix m = random_closure(9, rng);
  TapsConfig config;
  config.max_expansions = 10;
  EXPECT_THROW(taps_search(m, config), Error);
}

TEST(Taps, SingleBestWithoutTieCollection) {
  Rng rng(24);
  const Matrix m = random_closure(6, rng);
  TapsConfig config;
  config.collect_ties = false;
  const TapsResult r = taps_search(m, config);
  EXPECT_EQ(r.best_paths.size(), 1u);
  const TapsResult full = taps_search(m);
  EXPECT_NEAR(r.log_probability, full.log_probability, 1e-12);
}

TEST(Taps, ValidatesInput) {
  Matrix rect(2, 3);
  EXPECT_THROW(taps_search(rect), Error);
  Matrix with_zero(3, 3, 0.0);
  with_zero(0, 1) = 0.5;  // incomplete closure
  EXPECT_THROW(taps_search(with_zero), Error);
}

TEST(Taps, TwoObjects) {
  Matrix m(2, 2, 0.0);
  m(0, 1) = 0.8;
  m(1, 0) = 0.2;
  const TapsResult r = taps_search(m);
  ASSERT_EQ(r.best_paths.size(), 1u);
  EXPECT_EQ(r.best_paths[0], (Path{0, 1}));
  EXPECT_NEAR(r.probability, 0.8, 1e-12);
}

}  // namespace
}  // namespace crowdrank
