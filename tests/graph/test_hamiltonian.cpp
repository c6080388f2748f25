// Unit + property tests for Hamiltonian-path utilities (§III, §V-D).
#include "graph/hamiltonian.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dense_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

using Edges = std::vector<WeightedEdge>;

/// Random weight matrix with zero diagonal; each off-diagonal entry is an
/// edge with probability edge_prob.
Matrix random_digraph(std::size_t n, double edge_prob, Rng& rng) {
  Matrix w(n, n, 0.0);
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i != j && rng.bernoulli(edge_prob)) {
        w(i, j) = rng.uniform(0.05, 1.0);
      }
    }
  }
  return w;
}

TEST(PermutationPath, Validation) {
  EXPECT_TRUE(is_permutation_path({2, 0, 1}, 3));
  EXPECT_FALSE(is_permutation_path({0, 1}, 3));
  EXPECT_FALSE(is_permutation_path({0, 0, 1}, 3));
  EXPECT_FALSE(is_permutation_path({0, 1, 3}, 3));
}

TEST(PathProbability, ProductOfWeights) {
  Matrix w(3, 3, 0.0);
  w(0, 1) = 0.5;
  w(1, 2) = 0.4;
  EXPECT_DOUBLE_EQ(path_probability(w, {0, 1, 2}), 0.2);
  EXPECT_DOUBLE_EQ(path_probability(w, {2, 1, 0}), 0.0);  // missing edges
  EXPECT_DOUBLE_EQ(path_probability(w, {0}), 1.0);        // empty product
}

TEST(PathLogCost, MatchesNegLogProbability) {
  Matrix w(3, 3, 0.0);
  w(0, 1) = 0.5;
  w(1, 2) = 0.4;
  EXPECT_NEAR(path_log_cost(w, {0, 1, 2}), -std::log(0.2), 1e-12);
  // Missing edge: huge but finite penalty.
  EXPECT_GT(path_log_cost(w, {2, 1, 0}), 700.0);
}

TEST(HpExistence, DirectedChainAndReverse) {
  const PreferenceGraph g(4, Edges{{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  EXPECT_TRUE(has_hamiltonian_path(g));

  const PreferenceGraph no_hp(
      4, Edges{{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}});  // star: no HP
  EXPECT_FALSE(has_hamiltonian_path(no_hp));
}

TEST(HpExistence, UndirectedTaskGraph) {
  TaskGraph path(4);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.add_edge(2, 3);
  EXPECT_TRUE(has_hamiltonian_path(path));

  TaskGraph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  EXPECT_FALSE(has_hamiltonian_path(star));
}

TEST(HpExistence, MatchesEnumerationOnRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const PreferenceGraph g = graph_from_matrix(random_digraph(6, 0.3, rng));
    const bool dp = has_hamiltonian_path(g);
    const bool brute = !enumerate_hamiltonian_paths(g).empty();
    EXPECT_EQ(dp, brute) << "trial " << trial;
  }
}

TEST(Enumeration, CompleteGraphHasFactorialPaths) {
  Edges edges;
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = 0; j < 4; ++j) {
      if (i != j) edges.push_back({i, j, 0.5});
    }
  }
  const PreferenceGraph g(4, edges);
  EXPECT_EQ(enumerate_hamiltonian_paths(g).size(), 24u);  // 4!
}

TEST(Enumeration, RejectsLargeGraphs) {
  const PreferenceGraph g(11, Edges{});
  EXPECT_THROW(enumerate_hamiltonian_paths(g), Error);
}

TEST(HeldKarp, FindsKnownOptimum) {
  // 0 -> 1 -> 2 dominates: every edge along it has the max weight.
  Matrix w(3, 3, 0.1);
  for (std::size_t i = 0; i < 3; ++i) w(i, i) = 0.0;
  w(0, 1) = 0.9;
  w(1, 2) = 0.9;
  const auto path = max_probability_hamiltonian_path(w);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (Path{0, 1, 2}));
}

TEST(HeldKarp, ReturnsNulloptWithoutHp) {
  Matrix w(3, 3, 0.0);
  w(0, 1) = 0.5;
  w(0, 2) = 0.5;  // star
  EXPECT_FALSE(max_probability_hamiltonian_path(w).has_value());
}

TEST(HeldKarp, MatchesBruteForceOnRandomGraphs) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const Matrix w = random_digraph(7, 0.7, rng);
    const auto dp = max_probability_hamiltonian_path(w);
    const auto all = enumerate_hamiltonian_paths(graph_from_matrix(w));
    if (all.empty()) {
      EXPECT_FALSE(dp.has_value()) << "trial " << trial;
      continue;
    }
    ASSERT_TRUE(dp.has_value()) << "trial " << trial;
    double best = 0.0;
    for (const Path& p : all) {
      best = std::max(best, path_probability(w, p));
    }
    EXPECT_NEAR(path_probability(w, *dp), best, 1e-12)
        << "trial " << trial;
  }
}

TEST(HeldKarp, ValidatesSize) {
  Matrix tiny(1, 1);
  EXPECT_THROW(max_probability_hamiltonian_path(tiny), Error);
  Matrix big(21, 21);
  EXPECT_THROW(max_probability_hamiltonian_path(big), Error);
  Matrix rect(3, 4);
  EXPECT_THROW(max_probability_hamiltonian_path(rect), Error);
}

}  // namespace
}  // namespace crowdrank
