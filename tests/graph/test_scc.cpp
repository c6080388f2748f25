// Unit tests for the SCC decomposition and condensation.
#include "graph/scc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "util/rng.hpp"

namespace crowdrank {
namespace {

using Edges = std::vector<WeightedEdge>;

PreferenceGraph cycle_graph(std::size_t n) {
  Edges edges;
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n, 0.9});
  }
  return PreferenceGraph(n, edges);
}

TEST(Scc, SingleCycleIsOneComponent) {
  const auto scc = strongly_connected_components(cycle_graph(5));
  EXPECT_EQ(scc.count(), 1u);
  EXPECT_EQ(scc.largest(), 5u);
  EXPECT_TRUE(scc.single_component());
}

TEST(Scc, ChainIsAllSingletons) {
  const PreferenceGraph g(4, Edges{{0, 1, 0.9}, {1, 2, 0.9}, {2, 3, 0.9}});
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count(), 4u);
  EXPECT_EQ(scc.largest(), 1u);
  EXPECT_FALSE(scc.single_component());
}

TEST(Scc, EdgelessGraphIsSingletons) {
  const PreferenceGraph g(3, Edges{});
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count(), 3u);
}

TEST(Scc, TwoCyclesJoinedByOneWayEdge) {
  // Cycle {0,1,2} -> cycle {3,4}: two components.
  const PreferenceGraph g(5, Edges{{0, 1, 0.9},
                                   {1, 2, 0.9},
                                   {2, 0, 0.9},
                                   {3, 4, 0.9},
                                   {4, 3, 0.9},
                                   {2, 3, 0.9}});
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count(), 2u);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[3], scc.component_of[4]);
  EXPECT_NE(scc.component_of[0], scc.component_of[3]);
  // Members are complete and disjoint.
  std::set<VertexId> all;
  for (const auto& comp : scc.members) {
    for (const VertexId v : comp) {
      EXPECT_TRUE(all.insert(v).second);
    }
  }
  EXPECT_EQ(all.size(), 5u);
}

TEST(Scc, CondensationEdgesCrossComponents) {
  const PreferenceGraph g(5, Edges{{0, 1, 0.9},
                                   {1, 0, 0.9},
                                   {2, 3, 0.9},
                                   {3, 2, 0.9},
                                   {1, 2, 0.9},    // crossing edge
                                   {4, 0, 0.9}});  // singleton -> 1st cycle
  const auto scc = strongly_connected_components(g);
  const auto edges = condensation_edges(g, scc);
  EXPECT_EQ(scc.count(), 3u);
  EXPECT_EQ(edges.size(), 2u);
  for (const auto& [from, to] : edges) {
    EXPECT_NE(from, to);
  }
}

TEST(Scc, CondensationIsAcyclic) {
  // Property: the condensation of any digraph has no 2-cycles (and by
  // Tarjan ordering, every edge goes from higher id to lower id).
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Edges random_edges;
    for (VertexId i = 0; i < 10; ++i) {
      for (VertexId j = 0; j < 10; ++j) {
        if (i != j && rng.bernoulli(0.2)) {
          random_edges.push_back({i, j, 0.5});
        }
      }
    }
    const PreferenceGraph g(10, random_edges);
    const auto scc = strongly_connected_components(g);
    const auto edges = condensation_edges(g, scc);
    std::set<std::pair<std::size_t, std::size_t>> edge_set(edges.begin(),
                                                           edges.end());
    for (const auto& [from, to] : edges) {
      EXPECT_FALSE(edge_set.contains({to, from}))
          << "condensation has a 2-cycle";
      EXPECT_GT(from, to) << "Tarjan order violated";
    }
  }
}

TEST(Scc, AgreesWithStrongConnectivityCheck) {
  // Random digraphs from sparse to dense, and a path through a random
  // order plus one back edge from its last vertex: strongly connected
  // only when that edge goes to the path's first vertex, not when it goes
  // to its second. Checks both forms of Kosaraju's test:
  // `is_strongly_connected` and the out-CSR plus `in_csr()` pair that
  // step 3 runs.
  std::size_t connected = 0;
  std::size_t checked = 0;
  const auto check = [&](const PreferenceGraph& g, const std::string& what) {
    const bool want = strongly_connected_components(g).single_component();
    EXPECT_EQ(g.is_strongly_connected(), want) << what;
    EXPECT_EQ(reaches_every_vertex(g.out_csr()) &&
                  reaches_every_vertex(g.in_csr()),
              want)
        << what;
    connected += want ? 1 : 0;
    ++checked;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (const std::size_t n : {2, 3, 9, 40, 150}) {
      for (const double p : {0.02, 0.1, 0.3}) {
        Edges edges;
        for (VertexId i = 0; i < n; ++i) {
          for (VertexId j = 0; j < n; ++j) {
            if (i != j && rng.bernoulli(p)) {
              edges.push_back({i, j, rng.uniform(0.05, 1.0)});
            }
          }
        }
        check(PreferenceGraph(n, edges), "random seed " +
                                             std::to_string(seed) + " n " +
                                             std::to_string(n));
      }
      const auto order = rng.permutation(n);
      Edges path;
      for (std::size_t k = 0; k + 1 < n; ++k) {
        path.push_back({static_cast<VertexId>(order[k]),
                        static_cast<VertexId>(order[k + 1]), 0.9});
      }
      for (const std::size_t target : {0, 1}) {
        if (target + 1 >= n) continue;
        Edges edges = path;
        edges.push_back({static_cast<VertexId>(order[n - 1]),
                         static_cast<VertexId>(order[target]), 0.1});
        const PreferenceGraph g(n, edges);
        EXPECT_EQ(g.is_strongly_connected(), target == 0);
        check(g, "back edge seed " + std::to_string(seed) + " n " +
                     std::to_string(n) + " to " + std::to_string(target));
      }
    }
  }
  EXPECT_GT(connected, 0u);
  EXPECT_LT(connected, checked);
}

TEST(Scc, LargeGraphNoStackOverflow) {
  // A 2000-vertex directed path stresses the iterative frame stack.
  const std::size_t n = 2000;
  Edges edges;
  for (VertexId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1, 0.9});
  }
  const PreferenceGraph g(n, edges);
  const auto scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count(), n);
}

}  // namespace
}  // namespace crowdrank
