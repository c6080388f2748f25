#include "graph/transitive_closure.hpp"

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace crowdrank {

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

namespace {

/// DFS over simple paths from src accumulating products into out(src, *).
/// Out-edges are tried in ascending target order (CSR rows are sorted), so
/// every out(src, j) sums its path products in a fixed order.
void enumerate_paths(const CsrAdjacency& adj, VertexId src, VertexId current,
                     double product, std::size_t depth, std::size_t max_len,
                     std::vector<bool>& on_path, Matrix& out) {
  if (depth >= max_len) return;
  for (std::size_t e = adj.row_ptr[current]; e < adj.row_ptr[current + 1];
       ++e) {
    const VertexId next = adj.neighbors[e];
    if (on_path[next]) continue;
    const double extended = product * adj.weights[e];
    if (depth + 1 >= 2) {
      // Paths of length >= 2 contribute to the indirect preference.
      out(src, next) += extended;
    }
    on_path[next] = true;
    enumerate_paths(adj, src, next, extended, depth + 1, max_len, on_path,
                    out);
    on_path[next] = false;
  }
}

}  // namespace

Matrix exact_indirect_preferences(const PreferenceGraph& g,
                                  std::size_t max_len) {
  const std::size_t n = g.vertex_count();
  CR_EXPECTS(max_len >= 2, "indirect paths have length >= 2");
  Matrix out(n, n, 0.0);
  std::vector<bool> on_path(n, false);
  for (VertexId src = 0; src < n; ++src) {
    on_path[src] = true;
    enumerate_paths(g.out_csr(), src, src, 1.0, 0, max_len, on_path, out);
    on_path[src] = false;
  }
  return out;
}

Matrix walk_indirect_preferences(const Matrix& weights, std::size_t max_len) {
  CR_EXPECTS(weights.is_square(), "weight matrix must be square");
  CR_EXPECTS(max_len >= 2, "indirect walks have length >= 2");
  return Matrix::power_sum(weights, 2, max_len);
}

}  // namespace crowdrank
