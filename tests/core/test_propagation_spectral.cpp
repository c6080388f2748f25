// Unit tests for the SpectralLimit propagation mode.
#include <gtest/gtest.h>
#include <cmath>

#include "../graph/dense_reference.hpp"
#include "core/propagation.hpp"
#include "graph/hamiltonian.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

PreferenceGraph smoothed_chain(std::size_t n, double forward = 0.9) {
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, i + 1, forward});
    edges.push_back({i + 1, i, 1.0 - forward});
  }
  return PreferenceGraph(n, edges);
}

PropagationConfig spectral() {
  PropagationConfig config;
  config.mode = PropagationMode::SpectralLimit;
  return config;
}

TEST(SpectralPropagation, ClosureCompleteAndNormalized) {
  const auto g = smoothed_chain(8);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.pairs_without_evidence, 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) {
        EXPECT_DOUBLE_EQ(closure(i, j), 0.0);
      } else {
        EXPECT_GT(closure(i, j), 0.0);
        EXPECT_NEAR(closure(i, j) + closure(j, i), 1.0, 1e-12);
      }
    }
  }
}

TEST(SpectralPropagation, CoversPairsBeyondBoundedHorizon) {
  // A 40-vertex chain: endpoints are 39 hops apart, far beyond the
  // bounded default horizon — spectral still orients them correctly.
  const auto g = smoothed_chain(40, 0.95);
  const Matrix closure = propagate_preferences(g, spectral(), nullptr);
  EXPECT_GT(closure(0, 39), 0.5);
  EXPECT_GT(closure(0, 20), 0.5);
  EXPECT_GT(closure(19, 39), 0.5);

  // The bounded default (L = 12) has no walk between the endpoints, so it
  // falls back to the uninformative prior there.
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  PropagationStats stats;
  const Matrix b = propagate_preferences(g, bounded, &stats);
  EXPECT_DOUBLE_EQ(b(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
}

TEST(SpectralPropagation, AgreesWithBoundedOnDenseGraphs) {
  // On a dense smoothed graph both modes orient pairs the same way.
  Rng rng(5);
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < 12; ++i) {
    for (VertexId j = i + 1; j < 12; ++j) {
      const double w = (i < j) ? rng.uniform(0.6, 0.95)
                               : rng.uniform(0.05, 0.4);
      edges.push_back({i, j, w});
      edges.push_back({j, i, 1.0 - w});
    }
  }
  const PreferenceGraph g(12, edges);
  PropagationConfig bounded;
  bounded.mode = PropagationMode::BoundedWalks;
  const Matrix mb = propagate_preferences(g, bounded, nullptr);
  const Matrix ms = propagate_preferences(g, spectral(), nullptr);
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j < 12; ++j) {
      if (i == j) continue;
      EXPECT_EQ(mb(i, j) > 0.5, ms(i, j) > 0.5) << i << "," << j;
    }
  }
}

TEST(SpectralPropagation, EdgelessGraphFallsBackEverywhere) {
  const PreferenceGraph g(5, std::vector<WeightedEdge>{});
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, spectral(), &stats);
  EXPECT_EQ(stats.pairs_without_evidence, 10u);
  EXPECT_DOUBLE_EQ(closure(0, 4), 0.5);
}

TEST(SpectralPropagation, ClosureHamiltonianAlways) {
  Rng rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto g = smoothed_chain(7, rng.uniform(0.55, 0.95));
    const Matrix closure = propagate_preferences(g, spectral(), nullptr);
    const PreferenceGraph cg = graph_from_matrix(closure);
    EXPECT_TRUE(cg.is_complete());
    EXPECT_TRUE(has_hamiltonian_path(cg));
  }
}

TEST(SpectralPropagation, SparseHybridMatchesDenseOracleBitwise) {
  // The fill threshold picks a *representation*, never a result: the
  // sparse kernels accumulate in the dense kernels' order, so all-dense
  // (0.0, the pinned oracle), the hybrid default, and all-sparse (1.0)
  // closures must agree bit for bit on the same graph.
  const auto g = smoothed_chain(33, 0.85);
  PropagationConfig dense_oracle = spectral();
  dense_oracle.fill_threshold = 0.0;
  PropagationStats dense_stats;
  const Matrix expected =
      propagate_preferences(g, dense_oracle, &dense_stats);
  EXPECT_EQ(dense_stats.densify_step, 1u);
  EXPECT_EQ(dense_stats.sparse_flops, 0u);
  EXPECT_DOUBLE_EQ(dense_stats.fill_ratio, 1.0);

  for (const double threshold : {0.10, 0.20, 1.0}) {
    PropagationConfig hybrid = spectral();
    hybrid.fill_threshold = threshold;
    PropagationStats stats;
    const Matrix closure = propagate_preferences(g, hybrid, &stats);
    EXPECT_EQ(closure, expected) << "threshold = " << threshold;
    EXPECT_GT(stats.sparse_flops, 0u) << "threshold = " << threshold;
    EXPECT_EQ(stats.doubling_steps, dense_stats.doubling_steps);
  }

  // All-sparse never densifies; the chain's closure fills up, so a small
  // threshold must densify at some step after the first.
  PropagationConfig all_sparse = spectral();
  all_sparse.fill_threshold = 1.0;
  PropagationStats sparse_stats;
  propagate_preferences(g, all_sparse, &sparse_stats);
  EXPECT_EQ(sparse_stats.densify_step, 0u);
  EXPECT_GT(sparse_stats.fill_ratio, 0.0);

  // The 33-chain starts at fill 64/1089 ~ 0.06, and one doubling puts the
  // state past 0.10 — so this threshold runs step 1 sparse and densifies
  // at a later step, exercising the mid-loop handoff.
  PropagationConfig tight = spectral();
  tight.fill_threshold = 0.10;
  PropagationStats tight_stats;
  propagate_preferences(g, tight, &tight_stats);
  EXPECT_GT(tight_stats.densify_step, 1u);
  EXPECT_GT(tight_stats.sparse_flops, 0u);
}

TEST(SpectralPropagation, HorizonTruncatesTheWalkSum) {
  // A 40-chain with horizon 4 covers only pairs within graph distance 4:
  // the endpoints (39 hops apart) fall back to the uninformative prior,
  // while near pairs are still oriented. The full limit covers everything.
  const auto g = smoothed_chain(40, 0.95);
  PropagationConfig truncated = spectral();
  truncated.spectral_horizon = 4;
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, truncated, &stats);
  EXPECT_DOUBLE_EQ(closure(0, 39), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
  EXPECT_GT(closure(0, 3), 0.5);
  EXPECT_NEAR(closure(2, 3) + closure(3, 2), 1.0, 1e-12);

  // Horizon >= n is the same sum the auto limit computes (n rounds up to
  // the same power of two), so the closures agree exactly.
  PropagationConfig wide = spectral();
  wide.spectral_horizon = 64;
  const Matrix full = propagate_preferences(g, spectral(), nullptr);
  EXPECT_EQ(propagate_preferences(g, wide, nullptr), full);
}

TEST(SpectralPropagation, RejectsInvalidHybridKnobs) {
  const auto g = smoothed_chain(4);
  PropagationConfig bad_threshold = spectral();
  bad_threshold.fill_threshold = 1.5;
  EXPECT_THROW(propagate_preferences(g, bad_threshold, nullptr), Error);
  PropagationConfig bad_horizon = spectral();
  bad_horizon.spectral_horizon = 1;
  EXPECT_THROW(propagate_preferences(g, bad_horizon, nullptr), Error);
}

TEST(SpectralPropagation, NoOverflowOnHeavyGraphs) {
  // Dense near-1 weights: unnormalized W^n would overflow by astronomical
  // margins; the renormalized doubling must stay finite.
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < 64; ++i) {
    for (VertexId j = 0; j < 64; ++j) {
      if (i != j) edges.push_back({i, j, i < j ? 0.99 : 0.01});
    }
  }
  const PreferenceGraph g(64, edges);
  const Matrix closure = propagate_preferences(g, spectral(), nullptr);
  for (const double v : closure.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(closure(0, 63), 0.5);
}

}  // namespace
}  // namespace crowdrank
