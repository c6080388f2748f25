// Unit tests for reachability and indirect-preference computation (§V-C).
#include "graph/transitive_closure.hpp"

#include <gtest/gtest.h>

#include "dense_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

using Edges = std::vector<WeightedEdge>;

TEST(Reachability, ChainClosure) {
  const PreferenceGraph g(4, Edges{{0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}});
  const auto closure = reachability_closure(g);
  EXPECT_TRUE(closure[0][1]);
  EXPECT_TRUE(closure[0][2]);
  EXPECT_TRUE(closure[0][3]);
  EXPECT_TRUE(closure[1][3]);
  EXPECT_FALSE(closure[3][0]);
  EXPECT_FALSE(closure[2][1]);
}

TEST(Reachability, SelfReachOnlyThroughCycles) {
  const PreferenceGraph acyclic(3, Edges{{0, 1, 0.5}});
  const auto c1 = reachability_closure(acyclic);
  EXPECT_FALSE(c1[0][0]);

  const PreferenceGraph cyclic(3, Edges{{0, 1, 0.5}, {1, 0, 0.5}});
  const auto c2 = reachability_closure(cyclic);
  EXPECT_TRUE(c2[0][0]);
  EXPECT_TRUE(c2[1][1]);
  EXPECT_FALSE(c2[2][2]);
}

TEST(ExactIndirect, SingleTwoHopPath) {
  const PreferenceGraph g(3, Edges{{0, 1, 0.8}, {1, 2, 0.5}});
  const Matrix ind = exact_indirect_preferences(g, 2);
  EXPECT_DOUBLE_EQ(ind(0, 2), 0.4);  // 0.8 * 0.5
  EXPECT_DOUBLE_EQ(ind(0, 1), 0.0);  // direct edges excluded
  EXPECT_DOUBLE_EQ(ind(2, 0), 0.0);
}

TEST(ExactIndirect, MultiplePathsSumEqually) {
  // Two disjoint 2-hop paths from 0 to 3: via 1 and via 2.
  const PreferenceGraph g(
      4, Edges{{0, 1, 0.5}, {1, 3, 0.5}, {0, 2, 0.4}, {2, 3, 0.4}});
  const Matrix ind = exact_indirect_preferences(g, 3);
  EXPECT_NEAR(ind(0, 3), 0.5 * 0.5 + 0.4 * 0.4, 1e-12);
}

TEST(ExactIndirect, RespectsMaxLength) {
  const PreferenceGraph g(4, Edges{{0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}});
  const Matrix two = exact_indirect_preferences(g, 2);
  EXPECT_DOUBLE_EQ(two(0, 3), 0.0);  // needs 3 hops
  const Matrix three = exact_indirect_preferences(g, 3);
  EXPECT_NEAR(three(0, 3), 0.9 * 0.9 * 0.9, 1e-12);
}

TEST(ExactIndirect, SimplePathsOnlyNoRevisits) {
  // 0 <-> 1 cycle plus 1 -> 2: the walk 0->1->0->1->2 must NOT count.
  const PreferenceGraph g(3, Edges{{0, 1, 0.5}, {1, 0, 0.5}, {1, 2, 0.5}});
  const Matrix ind = exact_indirect_preferences(g, 2);
  EXPECT_DOUBLE_EQ(ind(0, 2), 0.25);  // only 0->1->2
  const Matrix longer = exact_indirect_preferences(g, 3);
  EXPECT_DOUBLE_EQ(longer(0, 2), 0.25);  // no extra simple paths exist
}

TEST(ExactIndirect, ValidatesMaxLength) {
  const PreferenceGraph g(3, Edges{});
  EXPECT_THROW(exact_indirect_preferences(g, 1), Error);
}

TEST(WalkIndirect, MatchesExactOnAcyclicGraphs) {
  // On a DAG every walk is a simple path, so the two definitions agree.
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 6;
    Matrix w(n, n, 0.0);
    // DAG edges only from lower to higher id.
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.6)) {
          w(i, j) = rng.uniform(0.1, 0.9);
        }
      }
    }
    const Matrix exact =
        exact_indirect_preferences(graph_from_matrix(w), n - 1);
    const Matrix walk = walk_indirect_preferences(w, n - 1);
    EXPECT_LT(Matrix::max_abs_diff(exact, walk), 1e-10) << "trial " << trial;
  }
}

TEST(WalkIndirect, OverestimatesOnCyclicGraphsButStaysClose) {
  // With cycles, walks revisit vertices: walk >= exact entrywise, and the
  // surplus decays with the product of sub-1 weights.
  Matrix w(3, 3, 0.0);
  w(0, 1) = 0.6;
  w(1, 0) = 0.4;
  w(1, 2) = 0.7;
  const Matrix exact = exact_indirect_preferences(graph_from_matrix(w), 2);
  const Matrix walk = walk_indirect_preferences(w, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(walk(i, j) + 1e-15, exact(i, j));
    }
  }
  // Length-2 walks from 0: 0->1->0 (revisit, lands on diagonal) and
  // 0->1->2 (simple). Off-diagonal length-2 entries agree.
  EXPECT_NEAR(walk(0, 2), exact(0, 2), 1e-12);
}

TEST(WalkIndirect, ValidatesArguments) {
  Matrix rect(2, 3);
  EXPECT_THROW(walk_indirect_preferences(rect, 3), Error);
  Matrix sq(3, 3);
  EXPECT_THROW(walk_indirect_preferences(sq, 1), Error);
}

TEST(Reachability, CsrMatchesDenseOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform_index(40);
    const double density = 0.02 + 0.3 * rng.uniform();
    Edges edges;
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(density)) {
          edges.push_back({i, j, 0.1 + 0.9 * rng.uniform()});
        }
      }
    }
    const PreferenceGraph g(n, edges);
    const auto sparse = reachability_closure(g);
    const auto dense = reachability_closure_dense(g);
    ASSERT_EQ(sparse, dense) << "trial " << trial << ", n = " << n;
  }
}

}  // namespace
}  // namespace crowdrank
