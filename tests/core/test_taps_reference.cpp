// Equivalence tests: the literal materialized-lists TAPS (§V-D1 verbatim)
// against the production lazy TAPS and Held-Karp.
#include "taps_reference.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/hamiltonian.hpp"
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

TEST(TapsReference, MatchesLazyTapsOnRandomClosures) {
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 4 + trial % 4;  // 4..7
    const Matrix m = random_closure(n, rng);
    const TapsReferenceResult ref = taps_reference_search(m);
    const TapsResult lazy = taps_search(m);
    EXPECT_NEAR(ref.log_probability, lazy.log_probability, 1e-9)
        << "trial " << trial;
    ASSERT_FALSE(ref.best_paths.empty());
    // Same optimum achieved by every returned path of both.
    for (const Path& p : ref.best_paths) {
      EXPECT_NEAR(std::log(path_probability(m, p)), ref.log_probability,
                  1e-9);
    }
  }
}

TEST(TapsReference, MatchesHeldKarp) {
  Rng rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    const Matrix m = random_closure(6, rng);
    const auto hk = max_probability_hamiltonian_path(m);
    ASSERT_TRUE(hk.has_value());
    const TapsReferenceResult ref = taps_reference_search(m);
    EXPECT_NEAR(ref.log_probability, -path_log_cost(m, *hk), 1e-9);
  }
}

TEST(TapsReference, EarlyTerminationOnPeakedInstances) {
  // A dominant chain: the threshold should fire long before row n!.
  Matrix m(6, 6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) m(i, j) = 0.05;
    }
  }
  for (std::size_t i = 0; i + 1 < 6; ++i) {
    m(i, i + 1) = 0.95;
    m(i + 1, i) = 0.05;
  }
  const TapsReferenceResult ref = taps_reference_search(m);
  EXPECT_EQ(ref.best_paths.front(), (Path{0, 1, 2, 3, 4, 5}));
  EXPECT_LT(ref.sorted_access_depth, 720u);  // 6! rows available
}

TEST(TapsReference, CollectsTies) {
  Matrix m(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) m(i, j) = 0.5;
    }
  }
  const TapsReferenceResult ref = taps_reference_search(m);
  EXPECT_EQ(ref.best_paths.size(), 6u);
  EXPECT_NEAR(ref.probability, 0.25, 1e-12);
}

TEST(TapsReference, Validates) {
  Matrix big(8, 8, 0.5);
  EXPECT_THROW(taps_reference_search(big), Error);
  Matrix incomplete(4, 4, 0.0);
  incomplete(0, 1) = 0.5;
  EXPECT_THROW(taps_reference_search(incomplete), Error);
}

}  // namespace
}  // namespace crowdrank
