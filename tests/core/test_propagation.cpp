// Unit tests for Step 3 — indirect preference propagation (paper §V-C).
#include "core/propagation.hpp"

#include <gtest/gtest.h>

#include "../graph/dense_reference.hpp"
#include "graph/hamiltonian.hpp"
#include "util/error.hpp"
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

TEST(Propagation, ClosureIsCompleteAndNormalized) {
  const auto g = smoothed_chain(6);
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, {}, &stats);
  EXPECT_TRUE(stats.complete);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(closure(i, i), 0.0);
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_GT(closure(i, j), 0.0);
      EXPECT_LT(closure(i, j), 1.0);
      EXPECT_NEAR(closure(i, j) + closure(j, i), 1.0, 1e-12);
    }
  }
}

TEST(Propagation, TransitivityPointsTheRightWay) {
  // Chain 0 -> 1 -> 2 -> 3 with strong forward weights: the inferred
  // (0, 2), (0, 3), (1, 3) preferences must also point forward.
  const auto g = smoothed_chain(4, 0.95);
  const Matrix closure = propagate_preferences(g, {}, nullptr);
  EXPECT_GT(closure(0, 2), 0.5);
  EXPECT_GT(closure(0, 3), 0.5);
  EXPECT_GT(closure(1, 3), 0.5);
}

TEST(Propagation, AlphaOneIsDirectOnly) {
  const auto g = smoothed_chain(4);
  PropagationConfig config;
  config.alpha = 1.0;
  PropagationStats stats;
  const Matrix closure = propagate_preferences(g, config, &stats);
  // Direct edges keep their (normalized) direct weights.
  EXPECT_NEAR(closure(0, 1), 0.9, 1e-12);
  // Pairs without direct edges had zero evidence -> defaulted to 0.5.
  EXPECT_DOUBLE_EQ(closure(0, 2), 0.5);
  EXPECT_GT(stats.pairs_without_evidence, 0u);
}

TEST(Propagation, AlphaZeroIsIndirectOnly) {
  const auto g = smoothed_chain(4, 0.95);
  PropagationConfig config;
  config.alpha = 0.0;
  const Matrix closure = propagate_preferences(g, config, nullptr);
  // (0,2) only has indirect evidence; with alpha = 0 it is used alone and
  // still points forward.
  EXPECT_GT(closure(0, 2), 0.5);
}

TEST(Propagation, ExactAndWalkModesAgreeOnShortHorizon) {
  // With max_length = 2 there are no repeated-vertex walks between
  // distinct endpoints, so the two modes coincide exactly.
  Rng rng(3);
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = 0; j < 5; ++j) {
      if (i != j && rng.bernoulli(0.5)) {
        edges.push_back({i, j, rng.uniform(0.1, 0.9)});
      }
    }
  }
  const PreferenceGraph g(5, edges);
  PropagationConfig walk;
  walk.max_length = 2;
  PropagationConfig exact;
  exact.max_length = 2;
  exact.mode = PropagationMode::ExactPaths;
  const Matrix mw = propagate_preferences(g, walk, nullptr);
  const Matrix me = propagate_preferences(g, exact, nullptr);
  EXPECT_LT(Matrix::max_abs_diff(mw, me), 1e-12);
}

TEST(Propagation, LongerHorizonFillsMorePairs) {
  const auto g = smoothed_chain(8);
  PropagationConfig short_cfg;
  short_cfg.max_length = 2;
  PropagationConfig long_cfg;
  long_cfg.max_length = 7;
  PropagationStats s_short;
  PropagationStats s_long;
  propagate_preferences(g, short_cfg, &s_short);
  propagate_preferences(g, long_cfg, &s_long);
  EXPECT_GT(s_short.pairs_without_evidence, s_long.pairs_without_evidence);
  EXPECT_EQ(s_long.pairs_without_evidence, 0u);
}

TEST(Propagation, ClosureAlwaysHasHamiltonianPath) {
  // Thm 5.1: the closure is complete, hence Hamiltonian.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    // Random strongly-connected-ish smoothed graph: bidirectional chain
    // plus random extras.
    std::vector<WeightedEdge> edges;
    for (VertexId i = 0; i + 1 < 7; ++i) {
      const double w = rng.uniform(0.55, 0.95);
      edges.push_back({i, i + 1, w});
      edges.push_back({i + 1, i, 1.0 - w});
    }
    const PreferenceGraph g(7, edges);
    const Matrix closure = propagate_preferences(g, {}, nullptr);
    const PreferenceGraph cg = graph_from_matrix(closure);
    EXPECT_TRUE(cg.is_complete());
    EXPECT_TRUE(has_hamiltonian_path(cg)) << "trial " << trial;
  }
}

TEST(Propagation, OneSidedEvidenceClampedByFloor) {
  // Only a forward edge (no reverse, no cycle): after normalization the
  // reverse weight would be exactly 0; the floor keeps it positive.
  const std::vector<WeightedEdge> unsmoothed{{0, 1, 1.0}};
  const PreferenceGraph g(3, unsmoothed);
  PropagationConfig config;
  const Matrix closure = propagate_preferences(g, config, nullptr);
  EXPECT_DOUBLE_EQ(closure(1, 0), config.completeness_floor);
  EXPECT_DOUBLE_EQ(closure(0, 1), 1.0 - config.completeness_floor);
}

TEST(Propagation, ValidatesConfig) {
  const auto g = smoothed_chain(3);
  PropagationConfig bad;
  bad.alpha = 1.5;
  EXPECT_THROW(propagate_preferences(g, bad, nullptr), Error);
  bad = {};
  bad.max_length = 1;
  EXPECT_THROW(propagate_preferences(g, bad, nullptr), Error);
  bad = {};
  bad.completeness_floor = 0.0;
  EXPECT_THROW(propagate_preferences(g, bad, nullptr), Error);
}

}  // namespace
}  // namespace crowdrank
