// Unit tests for the task graph (paper §III).
#include "graph/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace crowdrank {
namespace {

TEST(TaskGraph, StartsEmpty) {
  TaskGraph g(4);
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_FALSE(g.is_connected());
}

TEST(TaskGraph, RejectsTinyGraphs) {
  EXPECT_THROW(TaskGraph(0), Error);
  EXPECT_THROW(TaskGraph(1), Error);
}

TEST(TaskGraph, AddEdgeIsUndirectedAndIdempotent) {
  TaskGraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate in reverse orientation
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(TaskGraph, RejectsSelfLoopsAndBadVertices) {
  TaskGraph g(3);
  EXPECT_THROW(g.add_edge(1, 1), Error);
  EXPECT_THROW(g.add_edge(0, 3), Error);
  EXPECT_THROW(g.degree(5), Error);
  EXPECT_THROW(g.neighbors(5), Error);
}

TEST(TaskGraph, DegreesAndNeighbors) {
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.neighbors(0).size(), 3u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_FALSE(g.is_regular());
}

TEST(TaskGraph, TriangleIsRegularAndConnected) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(g.is_connected());
}

TEST(TaskGraph, EdgesAreCanonical) {
  TaskGraph g(3);
  g.add_edge(2, 0);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_EQ(g.edges()[0].first, 0u);
  EXPECT_EQ(g.edges()[0].second, 2u);
}

TEST(TaskGraph, ConnectivityDetectsComponents) {
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(TaskGraph, HamiltonianPathCheck) {
  TaskGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_TRUE(g.is_hamiltonian_path({0, 1, 2, 3}));
  EXPECT_TRUE(g.is_hamiltonian_path({3, 2, 1, 0}));
  EXPECT_FALSE(g.is_hamiltonian_path({0, 2, 1, 3}));  // missing edges
  EXPECT_FALSE(g.is_hamiltonian_path({0, 1, 2}));     // too short
  EXPECT_FALSE(g.is_hamiltonian_path({0, 1, 2, 2}));  // duplicate
  EXPECT_FALSE(g.is_hamiltonian_path({0, 1, 2, 9}));  // out of range
}

TEST(TaskGraph, RemoveEdgeKeepsTheOrderOfWhatRemains) {
  TaskGraph g(5);
  g.add_edge(0, 1);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(0, 2));  // stored as {0, 2}, added as (2, 0)
  EXPECT_FALSE(g.has_edge(2, 0));
  EXPECT_FALSE(g.remove_edge(2, 0));  // already gone
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(std::vector<Edge>(g.edges().begin(), g.edges().end()),
            (std::vector<Edge>{{0, 1}, {0, 3}, {3, 4}, {1, 2}}));
  const auto row = [&](VertexId v) {
    return std::vector<VertexId>(g.neighbors(v).begin(),
                                 g.neighbors(v).end());
  };
  EXPECT_EQ(row(0), (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(row(2), (std::vector<VertexId>{1}));
  // Adding it back appends, like any new edge.
  EXPECT_TRUE(g.add_edge(0, 2));
  EXPECT_EQ(g.edges().back(), (Edge{0, 2}));
  EXPECT_EQ(row(0), (std::vector<VertexId>{1, 3, 2}));
  EXPECT_EQ(row(2), (std::vector<VertexId>{1, 0}));
}

TEST(TaskGraph, RemoveEdgeChecksVertices) {
  TaskGraph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(g.remove_edge(0, 3), Error);
  EXPECT_FALSE(g.remove_edge(1, 1));
  EXPECT_FALSE(g.remove_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(TaskGraph, EditedGraphEqualsOneBuiltFromItsFinalEdges) {
  constexpr std::size_t kN = 12;
  Rng rng(5);
  TaskGraph edited(kN);
  for (int step = 0; step < 400; ++step) {
    const VertexId a = rng.uniform_index(kN);
    const VertexId b = rng.uniform_index(kN);
    if (a == b) continue;
    const bool had = edited.has_edge(a, b);
    if (rng.bernoulli(0.6)) {
      EXPECT_EQ(edited.add_edge(a, b), !had);
      EXPECT_TRUE(edited.has_edge(b, a));
    } else {
      EXPECT_EQ(edited.remove_edge(a, b), had);
      EXPECT_FALSE(edited.has_edge(b, a));
    }
  }
  TaskGraph built(kN);
  for (const Edge& e : edited.edges()) {
    built.add_edge(e.first, e.second);
  }
  for (VertexId v = 0; v < kN; ++v) {
    EXPECT_TRUE(std::equal(edited.neighbors(v).begin(),
                           edited.neighbors(v).end(),
                           built.neighbors(v).begin(),
                           built.neighbors(v).end()));
    for (VertexId u = 0; u < kN; ++u) {
      EXPECT_EQ(edited.has_edge(v, u), built.has_edge(v, u));
    }
  }
}

/// Checks `g` against `reference` (canonical pairs): edge count, the
/// degree and has_edge of every pair, and the edge list as a set.
void expect_same_edges(const TaskGraph& g,
                       const std::set<std::pair<VertexId, VertexId>>& ref) {
  ASSERT_EQ(g.edge_count(), ref.size());
  std::set<std::pair<VertexId, VertexId>> listed;
  for (const Edge& e : g.edges()) {
    listed.emplace(e.first, e.second);
  }
  EXPECT_EQ(listed, ref);
  for (VertexId a = 0; a < g.vertex_count(); ++a) {
    std::size_t degree = 0;
    for (VertexId b = 0; b < g.vertex_count(); ++b) {
      const bool want = ref.count({std::min(a, b), std::max(a, b)}) > 0;
      ASSERT_EQ(g.has_edge(a, b), want) << a << "-" << b;
      degree += want ? 1 : 0;
    }
    ASSERT_EQ(g.degree(a), degree);
  }
}

TEST(TaskGraph, MatchesASetReferenceUnderRandomEdits) {
  // Dense sizes drive the edge set through many doublings and keep it
  // near its load limit, where probe runs are long and wrap the table's
  // end; every removal is a backward-shift delete inside such runs.
  for (const std::size_t n : {5u, 12u, 40u, 90u}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Rng rng(n);
    TaskGraph g(n);
    std::set<std::pair<VertexId, VertexId>> ref;
    for (int step = 0; step < 20'000; ++step) {
      const VertexId a = rng.uniform_index(n);
      const VertexId b = rng.uniform_index(n);
      const auto key = std::pair{std::min(a, b), std::max(a, b)};
      // Grow toward a dense graph, then thin it out again.
      const double add_chance = step < 10'000 ? 0.7 : 0.35;
      if (a == b) {
        ASSERT_FALSE(g.has_edge(a, b));
        ASSERT_FALSE(g.remove_edge(a, b));
      } else if (rng.bernoulli(add_chance)) {
        ASSERT_EQ(g.add_edge(a, b), ref.insert(key).second);
      } else {
        ASSERT_EQ(g.remove_edge(a, b), ref.erase(key) == 1);
      }
      ASSERT_EQ(g.has_edge(b, a), ref.count(key) == 1);
      if (step % 2'000 == 1'999) {
        expect_same_edges(g, ref);
      }
    }
    expect_same_edges(g, ref);
  }
}

TEST(TaskGraph, RemovalInsideAProbeRunThatWrapsKeepsTheRestReachable) {
  // Mirrors task_graph.cpp's layout: edge {a, b}, a < b, has key
  // a * n + b and home slot (key * 0x9E3779B97F4A7C15) >> 60 in the first
  // 16-slot table, which holds up to 8 edges. Edges homed on the last two
  // slots fill them and wrap into slots 0, 1, ...
  constexpr std::size_t kN = 64;
  std::vector<std::pair<VertexId, VertexId>> tail;
  for (VertexId a = 0; a < kN && tail.size() < 6; ++a) {
    for (VertexId b = a + 1; b < kN && tail.size() < 6; ++b) {
      const std::uint64_t key = a * kN + b;
      if ((key * 0x9E3779B97F4A7C15ULL) >> 60 >= 14) {
        tail.emplace_back(a, b);
      }
    }
  }
  ASSERT_EQ(tail.size(), 6u);
  // Remove each of the six in turn from a fresh graph, then the rest in
  // reverse insertion order.
  for (std::size_t gone = 0; gone < tail.size(); ++gone) {
    SCOPED_TRACE("first removal: " + std::to_string(gone));
    TaskGraph g(kN);
    std::set<std::pair<VertexId, VertexId>> ref;
    for (const auto& [a, b] : tail) {
      ASSERT_TRUE(g.add_edge(b, a));
      ref.emplace(a, b);
    }
    ASSERT_TRUE(g.remove_edge(tail[gone].first, tail[gone].second));
    ref.erase(tail[gone]);
    expect_same_edges(g, ref);
    for (std::size_t k = tail.size(); k-- > 0;) {
      if (k == gone) continue;
      ASSERT_TRUE(g.remove_edge(tail[k].second, tail[k].first));
      ref.erase(tail[k]);
      expect_same_edges(g, ref);
    }
    // The emptied table takes them back.
    for (const auto& [a, b] : tail) {
      ASSERT_TRUE(g.add_edge(a, b));
      ASSERT_FALSE(g.add_edge(b, a));
    }
    EXPECT_EQ(g.edge_count(), tail.size());
  }
}

TEST(EdgeType, CanonicalOrdering) {
  const Edge e = Edge::canonical(5, 2);
  EXPECT_EQ(e.first, 2u);
  EXPECT_EQ(e.second, 5u);
  EXPECT_EQ(Edge::canonical(2, 5), e);
  EXPECT_LT(Edge::canonical(0, 1), Edge::canonical(0, 2));
}

}  // namespace
}  // namespace crowdrank
