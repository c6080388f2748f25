#include "dense_reference.hpp"

#include <queue>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace crowdrank {

PreferenceGraph graph_from_matrix(const Matrix& weights) {
  CR_EXPECTS(weights.is_square(), "weight matrix must be square");
  const std::size_t n = weights.rows();
  std::vector<WeightedEdge> edges;
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = 0; j < n; ++j) {
      if (i == j) {
        CR_EXPECTS(weights(i, j) == 0.0,
                   "weight matrix diagonal must be zero");
        continue;
      }
      edges.push_back({i, j, weights(i, j)});
    }
  }
  return PreferenceGraph(n, edges);
}

std::vector<std::vector<bool>> reachability_closure(
    const PreferenceGraph& g) {
  const std::size_t n = g.vertex_count();
  const CsrAdjacency& csr = g.out_csr();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  parallel_for(0, n, /*grain=*/8, [&](std::size_t s0, std::size_t s1) {
    // Per-chunk scratch; each source writes only closure[src].
    std::vector<VertexId> stack;
    for (std::size_t src = s0; src < s1; ++src) {
      std::vector<bool>& row = closure[src];
      stack.clear();
      stack.push_back(static_cast<VertexId>(src));
      while (!stack.empty()) {
        const VertexId v = stack.back();
        stack.pop_back();
        for (std::size_t e = csr.row_ptr[v]; e < csr.row_ptr[v + 1]; ++e) {
          const VertexId u = csr.neighbors[e];
          if (!row[u]) {
            row[u] = true;  // u reachable by a non-empty path; src -> src
                            // only becomes true via a directed cycle
            stack.push_back(u);
          }
        }
      }
    }
  });
  return closure;
}

std::vector<std::vector<bool>> reachability_closure_dense(
    const PreferenceGraph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::vector<bool>> closure(n, std::vector<bool>(n, false));
  for (VertexId src = 0; src < n; ++src) {
    std::queue<VertexId> frontier;
    frontier.push(src);
    std::vector<bool> seen(n, false);
    seen[src] = true;  // marks "expanded", not "reachable": closure excludes
                       // the trivial empty path src -> src
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop();
      for (VertexId u = 0; u < n; ++u) {
        if (g.weight(v, u) > 0.0 && !closure[src][u]) {
          closure[src][u] = true;
          if (!seen[u]) {
            seen[u] = true;
            frontier.push(u);
          }
        }
      }
    }
  }
  return closure;
}

}  // namespace crowdrank
