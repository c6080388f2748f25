#include "graph/preference_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/error.hpp"

namespace crowdrank {

namespace {

/// Stable counting sort of edge indices by `key(edge)` in [0, n): sorts
/// index_at(0), index_at(1), ... over every edge. O(n + m).
template <typename IndexAt, typename Key>
std::vector<std::uint32_t> counting_sort(std::span<const WeightedEdge> edges,
                                         std::size_t n, IndexAt index_at,
                                         Key key) {
  std::vector<std::size_t> start(n + 1, 0);
  for (const WeightedEdge& e : edges) ++start[key(e) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<std::uint32_t> sorted(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const std::uint32_t e = index_at(k);
    sorted[start[key(edges[e])]++] = e;
  }
  return sorted;
}

}  // namespace

PreferenceGraph::PreferenceGraph(std::size_t n,
                                 std::span<const WeightedEdge> edges) {
  CR_EXPECTS(n >= 2, "a preference graph needs at least two objects");
  CR_EXPECTS(edges.size() < (std::size_t{1} << 32),
             "a preference graph takes fewer than 2^32 edges");
  for (const WeightedEdge& e : edges) {
    CR_EXPECTS(e.from < n && e.to < n, "vertex id out of range");
    CR_EXPECTS(e.from != e.to, "self-preference is not allowed");
    CR_EXPECTS(e.weight >= 0.0 && e.weight <= 1.0,
               "preference weight must lie in [0, 1]");
  }
  // Sorting the edge indices by target and then, stably, by source leaves
  // every row in ascending target order with any repeated (from, to)
  // adjacent.
  const std::vector<std::uint32_t> by_target = counting_sort(
      edges, n, [](std::size_t k) { return static_cast<std::uint32_t>(k); },
      [](const WeightedEdge& e) { return e.to; });
  const std::vector<std::uint32_t> order = counting_sort(
      edges, n, [&](std::size_t k) { return by_target[k]; },
      [](const WeightedEdge& e) { return e.from; });

  csr_.row_ptr.assign(n + 1, 0);
  csr_.neighbors.reserve(order.size());
  csr_.weights.reserve(order.size());
  const WeightedEdge* previous = nullptr;
  for (const std::uint32_t k : order) {
    const WeightedEdge& e = edges[k];
    CR_EXPECTS(previous == nullptr || previous->from != e.from ||
                   previous->to != e.to,
               "repeated preference edge");
    previous = &e;
    if (e.weight > 0.0) {
      ++csr_.row_ptr[e.from + 1];
      csr_.neighbors.push_back(e.to);
      csr_.weights.push_back(e.weight);
    }
  }
  std::partial_sum(csr_.row_ptr.begin(), csr_.row_ptr.end(),
                   csr_.row_ptr.begin());
}

double PreferenceGraph::weight(VertexId from, VertexId to) const {
  CR_DEBUG_EXPECTS(from < vertex_count() && to < vertex_count(),
                   "vertex id out of range");
  const auto begin = csr_.neighbors.begin() +
                     static_cast<std::ptrdiff_t>(csr_.row_ptr[from]);
  const auto end = csr_.neighbors.begin() +
                   static_cast<std::ptrdiff_t>(csr_.row_ptr[from + 1]);
  const auto it = std::lower_bound(begin, end, to);
  if (it == end || *it != to) return 0.0;
  return csr_.weights[static_cast<std::size_t>(it - csr_.neighbors.begin())];
}

std::vector<std::size_t> PreferenceGraph::in_degrees() const {
  std::vector<std::size_t> in(vertex_count(), 0);
  for (const VertexId u : csr_.neighbors) ++in[u];
  return in;
}

std::size_t PreferenceGraph::in_degree(VertexId v) const {
  CR_EXPECTS(v < vertex_count(), "vertex id out of range");
  return static_cast<std::size_t>(
      std::count(csr_.neighbors.begin(), csr_.neighbors.end(), v));
}

std::size_t PreferenceGraph::out_degree(VertexId v) const {
  CR_EXPECTS(v < vertex_count(), "vertex id out of range");
  return csr_.row_ptr[v + 1] - csr_.row_ptr[v];
}

bool PreferenceGraph::is_in_node(VertexId v) const {
  return out_degree(v) == 0 && in_degree(v) > 0;
}

bool PreferenceGraph::is_out_node(VertexId v) const {
  return out_degree(v) > 0 && in_degree(v) == 0;
}

std::vector<VertexId> PreferenceGraph::in_nodes() const {
  const std::vector<std::size_t> in = in_degrees();
  std::vector<VertexId> result;
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (in[v] > 0 && out_degree(v) == 0) result.push_back(v);
  }
  return result;
}

std::vector<VertexId> PreferenceGraph::out_nodes() const {
  const std::vector<std::size_t> in = in_degrees();
  std::vector<VertexId> result;
  for (VertexId v = 0; v < vertex_count(); ++v) {
    if (out_degree(v) > 0 && in[v] == 0) result.push_back(v);
  }
  return result;
}

std::vector<std::pair<VertexId, VertexId>> PreferenceGraph::one_edges()
    const {
  std::vector<std::pair<VertexId, VertexId>> result;
  for (VertexId i = 0; i < vertex_count(); ++i) {
    for (std::size_t e = csr_.row_ptr[i]; e < csr_.row_ptr[i + 1]; ++e) {
      if (csr_.weights[e] == 1.0) {
        result.emplace_back(i, csr_.neighbors[e]);
      }
    }
  }
  return result;
}

bool PreferenceGraph::is_complete() const {
  // Rows hold distinct non-self targets, so n(n-1) edges means every pair.
  const std::size_t n = vertex_count();
  return edge_count() == n * (n - 1);
}

bool reaches_every_vertex(const CsrAdjacency& adjacency) {
  const std::size_t n = adjacency.vertex_count();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (std::size_t e = adjacency.row_ptr[v]; e < adjacency.row_ptr[v + 1];
         ++e) {
      const VertexId u = adjacency.neighbors[e];
      if (!seen[u]) {
        seen[u] = true;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

bool PreferenceGraph::is_strongly_connected() const {
  return reaches_every_vertex(csr_) && reaches_every_vertex(transpose(false));
}

CsrAdjacency PreferenceGraph::transpose(bool with_weights) const {
  // Each vertex's in-edge sources, scattered from the out-rows: visiting
  // sources in ascending order keeps every row sorted.
  const std::size_t n = vertex_count();
  CsrAdjacency in;
  in.row_ptr.assign(n + 1, 0);
  const std::vector<std::size_t> degrees = in_degrees();
  std::partial_sum(degrees.begin(), degrees.end(), in.row_ptr.begin() + 1);
  in.neighbors.resize(edge_count());
  if (with_weights) in.weights.resize(edge_count());
  std::vector<std::size_t> cursor(in.row_ptr.begin(), in.row_ptr.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (std::size_t e = csr_.row_ptr[v]; e < csr_.row_ptr[v + 1]; ++e) {
      const std::size_t slot = cursor[csr_.neighbors[e]]++;
      in.neighbors[slot] = v;
      if (with_weights) in.weights[slot] = csr_.weights[e];
    }
  }
  return in;
}

}  // namespace crowdrank
