// Unit tests for the preference graph (paper §III, Thm 4.3 vocabulary).
#include "graph/preference_graph.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/smoothing.hpp"
#include "core/truth_discovery.hpp"
#include "graph/scc.hpp"
#include "util/error.hpp"

namespace crowdrank {
namespace {

using Edges = std::vector<WeightedEdge>;

TEST(PreferenceGraph, StartsEmpty) {
  const PreferenceGraph g(3, Edges{});
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.0);
}

TEST(PreferenceGraph, WeightsValidated) {
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 0, 0.5}}), Error);
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 1, -0.1}}), Error);
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 1, 1.1}}), Error);
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 9, 0.5}}), Error);
  EXPECT_THROW(PreferenceGraph(3, Edges{{9, 0, 0.5}}), Error);
  const PreferenceGraph g(3, Edges{{0, 1, 0.7}});
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 0.7);
  const PreferenceGraph absent(3, Edges{{0, 1, 0.0}});  // weight 0: no edge
  EXPECT_FALSE(absent.has_edge(0, 1));
  EXPECT_EQ(absent.edge_count(), 0u);
}

TEST(PreferenceGraph, RejectsRepeatedEdge) {
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 1, 0.7}, {0, 1, 0.7}}), Error);
  // A repeat is a repeat even when one copy carries weight 0.
  EXPECT_THROW(PreferenceGraph(3, Edges{{0, 1, 0.0}, {2, 1, 0.5}, {0, 1, 0.4}}),
               Error);
  // Both orientations of one pair are two distinct edges.
  EXPECT_NO_THROW(PreferenceGraph(3, Edges{{0, 1, 0.7}, {1, 0, 0.3}}));
}

TEST(PreferenceGraph, CsrRowsAscendWhateverTheInputOrder) {
  const PreferenceGraph g(
      4, Edges{{2, 0, 0.5}, {0, 3, 0.4}, {0, 1, 0.9}, {2, 1, 0.0},
               {3, 2, 1.0}, {0, 2, 0.6}});
  const CsrAdjacency& csr = g.out_csr();
  EXPECT_EQ(csr.row_ptr, (std::vector<std::size_t>{0, 3, 3, 4, 5}));
  EXPECT_EQ(csr.neighbors, (std::vector<VertexId>{1, 2, 3, 0, 2}));
  EXPECT_EQ(csr.weights, (std::vector<double>{0.9, 0.6, 0.4, 0.5, 1.0}));
  // The transpose lists each vertex's sources, ascending, with weights.
  const CsrAdjacency in = g.in_csr();
  EXPECT_EQ(in.row_ptr, (std::vector<std::size_t>{0, 1, 2, 4, 5}));
  EXPECT_EQ(in.neighbors, (std::vector<VertexId>{2, 0, 0, 3, 0}));
  EXPECT_EQ(in.weights, (std::vector<double>{0.5, 0.9, 0.6, 1.0, 0.4}));
  EXPECT_DOUBLE_EQ(g.weight(0, 2), 0.6);
  EXPECT_DOUBLE_EQ(g.weight(2, 1), 0.0);
  EXPECT_DOUBLE_EQ(g.weight(1, 0), 0.0);
}

TEST(PreferenceGraph, DirectedSemantics) {
  const PreferenceGraph g(3, Edges{{0, 1, 0.9}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.in_degree(0), 0u);
}

TEST(PreferenceGraph, InAndOutNodes) {
  // Figure 1(b) shape: v2 has only incoming edges -> in-node.
  const PreferenceGraph g(
      4, Edges{{0, 2, 1.0}, {1, 2, 1.0}, {3, 0, 1.0}, {3, 1, 1.0}});
  EXPECT_TRUE(g.is_in_node(2));
  EXPECT_TRUE(g.is_out_node(3));
  EXPECT_FALSE(g.is_in_node(0));
  EXPECT_FALSE(g.is_out_node(0));
  EXPECT_EQ(g.in_nodes(), std::vector<VertexId>{2});
  EXPECT_EQ(g.out_nodes(), std::vector<VertexId>{3});
}

TEST(PreferenceGraph, IsolatedVertexIsNeither) {
  const PreferenceGraph g(3, Edges{{0, 1, 0.6}});
  EXPECT_FALSE(g.is_in_node(2));
  EXPECT_FALSE(g.is_out_node(2));
}

TEST(PreferenceGraph, OneEdgesDetected) {
  const PreferenceGraph g(3, Edges{{0, 1, 1.0}, {1, 2, 0.8}, {2, 1, 0.2}});
  const auto ones = g.one_edges();
  ASSERT_EQ(ones.size(), 1u);
  EXPECT_EQ(ones[0].first, 0u);
  EXPECT_EQ(ones[0].second, 1u);
}

TEST(PreferenceGraph, CompletenessCheck) {
  EXPECT_FALSE(PreferenceGraph(3, Edges{}).is_complete());
  Edges all_pairs;
  for (VertexId i = 0; i < 3; ++i) {
    for (VertexId j = 0; j < 3; ++j) {
      if (i != j) all_pairs.push_back({i, j, 0.5});
    }
  }
  EXPECT_TRUE(PreferenceGraph(3, all_pairs).is_complete());
}

TEST(PreferenceGraph, StrongConnectivity) {
  const PreferenceGraph cycle(3,
                              Edges{{0, 1, 0.9}, {1, 2, 0.9}, {2, 0, 0.9}});
  EXPECT_TRUE(cycle.is_strongly_connected());

  const PreferenceGraph chain(3, Edges{{0, 1, 0.9}, {1, 2, 0.9}});
  EXPECT_FALSE(chain.is_strongly_connected());

  // Bidirectional chain (what smoothing produces) is strongly connected.
  const PreferenceGraph both_ways(
      3, Edges{{0, 1, 0.9}, {1, 2, 0.9}, {1, 0, 0.1}, {2, 1, 0.1}});
  EXPECT_TRUE(both_ways.is_strongly_connected());
}

TEST(PreferenceGraph, EdgeCountCountsDirectedEdges) {
  const PreferenceGraph g(3, Edges{{0, 1, 0.6}, {1, 0, 0.4}, {1, 2, 1.0}});
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(PreferenceGraph, RejectsTinyGraphs) {
  EXPECT_THROW(PreferenceGraph(1, Edges{}), Error);
}

// Steps 1-2 at a scale no dense n x n store reaches (n^2 doubles would be
// 80 GB): a circulant 4-regular task graph (i <-> i+1, i <-> i+2 mod n).
// Every vertex v with v % 10 == 0 wins all four of its tasks unanimously
// (an out-node of the direct graph), every v with v % 10 == 5 loses all
// four (an in-node); special vertices are >= 5 apart, so no task joins two
// of them, and every other task is contested.
TEST(PreferenceGraph, SmoothsACirculantGraphWithOneHundredThousandObjects) {
  constexpr std::size_t n = 100'000;
  TruthDiscoveryResult step1;
  step1.worker_quality = {0.8, 0.9, 0.7};
  for (VertexId i = 0; i < n; ++i) {
    for (const VertexId hop : {VertexId{1}, VertexId{2}}) {
      const Edge task = Edge::canonical(i, (i + hop) % n);
      // x = P(first preferred to second).
      double x = 0.6;
      for (const VertexId v : {task.first, task.second}) {
        if (v % 10 == 0) x = v == task.first ? 1.0 : 0.0;
        if (v % 10 == 5) x = v == task.first ? 0.0 : 1.0;
      }
      step1.truths.push_back(TaskTruth{task, x, 3});
    }
  }
  TaskWorkers task_workers;  // workers 0, 1 and 2 answer every task
  for (std::size_t t = 0; t < step1.truths.size(); ++t) {
    task_workers.workers.insert(task_workers.workers.end(), {0, 1, 2});
    task_workers.offsets.push_back(task_workers.workers.size());
  }
  constexpr std::size_t kSpecial = n / 10;  // of each kind

  const PreferenceGraph direct = step1.to_preference_graph(n);
  EXPECT_EQ(direct.edge_count(), 2 * 2 * n - 4 * 2 * kSpecial);
  EXPECT_EQ(direct.out_nodes().size(), kSpecial);
  EXPECT_EQ(direct.in_nodes().size(), kSpecial);
  EXPECT_EQ(direct.one_edges().size(), 4 * 2 * kSpecial);
  EXPECT_FALSE(direct.is_strongly_connected());

  SmoothingStats stats;
  const PreferenceGraph smoothed = smooth_preferences(
      n, step1, task_workers, SmoothingConfig{}, nullptr, &stats);
  EXPECT_EQ(stats.one_edges_smoothed, 4 * 2 * kSpecial);
  EXPECT_EQ(stats.in_nodes_before, kSpecial);
  EXPECT_EQ(stats.out_nodes_before, kSpecial);
  EXPECT_TRUE(stats.strongly_connected_after);
  EXPECT_EQ(smoothed.edge_count(), 2 * 2 * n);
  EXPECT_TRUE(smoothed.in_nodes().empty());
  EXPECT_TRUE(smoothed.out_nodes().empty());
  EXPECT_TRUE(smoothed.one_edges().empty());
  EXPECT_TRUE(smoothed.is_strongly_connected());
  EXPECT_EQ(strongly_connected_components(smoothed).count(), 1u);
}

// The graph is immutable, so concurrent readers need no synchronization:
// under the tsan preset this pins that no query writes shared state.
TEST(PreferenceGraph, ConcurrentReadersAgree) {
  Edges edges;
  for (VertexId i = 0; i + 1 < 200; ++i) {
    edges.push_back({i, i + 1, 0.8});
    if (i % 3 != 0) edges.push_back({i + 1, i, 0.2});
  }
  const PreferenceGraph g(200, edges);
  const std::vector<VertexId> expected_in = g.in_nodes();
  const bool expected_connected = g.is_strongly_connected();

  const PreferenceGraph fresh(200, edges);
  std::vector<std::size_t> csr_edges(4, 0);
  std::vector<std::vector<VertexId>> in_nodes(4);
  std::vector<char> connected(4, 0);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      csr_edges[t] = fresh.out_csr().edge_count();
      in_nodes[t] = fresh.in_nodes();
      connected[t] = fresh.is_strongly_connected() ? 1 : 0;
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(csr_edges[t], g.edge_count());
    EXPECT_EQ(in_nodes[t], expected_in);
    EXPECT_EQ(connected[t] == 1, expected_connected);
  }
}

}  // namespace
}  // namespace crowdrank
