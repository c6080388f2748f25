#include "graph/transitive_closure.hpp"

#include <vector>

#include "util/error.hpp"

namespace crowdrank {

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
