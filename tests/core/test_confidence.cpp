// Unit tests for ranking confidence annotation.
#include "core/confidence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/propagation.hpp"
#include "graph/preference_graph.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

Matrix closure_for(std::initializer_list<double> boundary_beliefs) {
  // Builds an (n x n) closure whose consecutive-pair weights along the
  // identity ranking are the given values; all other pairs confident 0.9.
  const std::size_t n = boundary_beliefs.size() + 1;
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      m(i, j) = 0.9;
      m(j, i) = 0.1;
    }
  }
  std::size_t p = 0;
  for (const double w : boundary_beliefs) {
    m(p, p + 1) = w;
    m(p + 1, p) = 1.0 - w;
    ++p;
  }
  return m;
}

TEST(Confidence, ProfileMatchesClosureWeights) {
  const Matrix m = closure_for({0.8, 0.55, 0.95});
  const auto c = ranking_confidence(m, Ranking::identity(4));
  ASSERT_EQ(c.boundary_belief.size(), 3u);
  EXPECT_DOUBLE_EQ(c.boundary_belief[0], 0.8);
  EXPECT_DOUBLE_EQ(c.boundary_belief[1], 0.55);
  EXPECT_DOUBLE_EQ(c.boundary_belief[2], 0.95);
  EXPECT_DOUBLE_EQ(c.min_belief, 0.55);
  EXPECT_EQ(c.weakest_boundary, 1u);
  EXPECT_NEAR(c.mean_belief, (0.8 + 0.55 + 0.95) / 3.0, 1e-12);
  EXPECT_NEAR(c.per_edge_geometric_mean,
              std::cbrt(0.8 * 0.55 * 0.95), 1e-12);
}

TEST(Confidence, ReversedRankingSeesComplementWeights) {
  const Matrix m = closure_for({0.8, 0.8, 0.8});
  const auto c =
      ranking_confidence(m, Ranking::identity(4).reversed());
  for (const double b : c.boundary_belief) {
    EXPECT_LE(b, 0.2 + 1e-12);
  }
}

TEST(Confidence, TiedGroupsSplitAtConfidentBoundaries) {
  // Boundaries: weak(0.51), strong(0.9), weak(0.52) -> groups
  // {0,1}, {2,3}.
  const Matrix m = closure_for({0.51, 0.9, 0.52});
  const auto groups =
      effectively_tied_groups(m, Ranking::identity(4), 0.55);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<VertexId>{2, 3}));
}

TEST(Confidence, AllConfidentMeansSingletonGroups) {
  const Matrix m = closure_for({0.9, 0.9});
  const auto groups =
      effectively_tied_groups(m, Ranking::identity(3), 0.55);
  EXPECT_EQ(groups.size(), 3u);
}

TEST(Confidence, AllWeakMeansOneGroup) {
  const Matrix m = closure_for({0.5, 0.5, 0.5, 0.5});
  const auto groups =
      effectively_tied_groups(m, Ranking::identity(5), 0.55);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 5u);
}

TEST(Confidence, GroupsPartitionTheRanking) {
  const Matrix m = closure_for({0.51, 0.9, 0.52, 0.7, 0.5});
  const auto groups =
      effectively_tied_groups(m, Ranking::identity(6), 0.6);
  std::size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, 6u);
}

TEST(Confidence, IntegratesWithPropagationOutput) {
  // A clean chain through Step 3: the weakest boundary must be one of the
  // adjacent-in-truth pairs (they carry the least transitive support).
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i + 1 < 6; ++i) {
    edges.push_back({i, i + 1, 0.9});
    edges.push_back({i + 1, i, 0.1});
  }
  const PreferenceGraph g(6, edges);
  const Matrix closure = propagate_preferences(g, {}, nullptr);
  const auto c = ranking_confidence(closure, Ranking::identity(6));
  EXPECT_GT(c.min_belief, 0.5);  // still correctly oriented everywhere
  EXPECT_GT(c.per_edge_geometric_mean, 0.5);
}

TEST(Confidence, Validates) {
  const Matrix m = closure_for({0.8});
  EXPECT_THROW(ranking_confidence(m, Ranking::identity(3)), Error);
  EXPECT_THROW(
      effectively_tied_groups(m, Ranking::identity(2), 0.4), Error);
  EXPECT_THROW(
      effectively_tied_groups(m, Ranking::identity(2), 1.1), Error);
}

}  // namespace
}  // namespace crowdrank
