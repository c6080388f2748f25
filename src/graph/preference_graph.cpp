#include "graph/preference_graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace crowdrank {

namespace {

/// Stable counting sort of `edges` by `key(edge)` in [0, n): O(n + m).
template <typename Key>
std::vector<WeightedEdge> counting_sort(std::span<const WeightedEdge> edges,
                                        std::size_t n, Key key) {
  std::vector<std::size_t> start(n + 1, 0);
  for (const WeightedEdge& e : edges) ++start[key(e) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<WeightedEdge> sorted(edges.size());
  for (const WeightedEdge& e : edges) sorted[start[key(e)]++] = e;
  return sorted;
}

}  // namespace

PreferenceGraph::PreferenceGraph(std::size_t n,
                                 std::span<const WeightedEdge> edges) {
  CR_EXPECTS(n >= 2, "a preference graph needs at least two objects");
  for (const WeightedEdge& e : edges) {
    CR_EXPECTS(e.from < n && e.to < n, "vertex id out of range");
    CR_EXPECTS(e.from != e.to, "self-preference is not allowed");
    CR_EXPECTS(e.weight >= 0.0 && e.weight <= 1.0,
               "preference weight must lie in [0, 1]");
  }
  // Sorting by target and then, stably, by source leaves every row in
  // ascending target order with any repeated (from, to) adjacent.
  const std::vector<WeightedEdge> by_target =
      counting_sort(edges, n, [](const WeightedEdge& e) { return e.to; });
  const std::vector<WeightedEdge> sorted = counting_sort(
      by_target, n, [](const WeightedEdge& e) { return e.from; });

  csr_.row_ptr.assign(n + 1, 0);
  csr_.neighbors.reserve(sorted.size());
  csr_.weights.reserve(sorted.size());
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    const WeightedEdge& e = sorted[k];
    CR_EXPECTS(k == 0 || sorted[k - 1].from != e.from ||
                   sorted[k - 1].to != e.to,
               "repeated preference edge");
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
