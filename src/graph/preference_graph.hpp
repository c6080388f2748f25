// Preference graph (paper §III): a weighted, directed graph over the same
// vertices as the task graph. The weight w_ij in (0, 1] of edge v_i -> v_j
// is the truth confidence of "O_i is preferred to O_j"; an absent edge has
// weight 0. The budget keeps this pre-closure graph sparse — fair task
// assignment makes it 2l/n-regular with l << C(n, 2) — so it is stored as
// one immutable CSR of its positive-weight out-edges, built once from an
// edge list, and every query below costs O(n + m) or less. Only Step 3's
// closure is complete; it is a separate dense matrix.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"

namespace crowdrank {

/// One directed edge `from -> to` carrying `weight`: the input vocabulary
/// of the PreferenceGraph constructor.
struct WeightedEdge {
  VertexId from;
  VertexId to;
  double weight;
};

/// Compressed-sparse-row adjacency over the positive-weight edges: the
/// out-neighbors of vertex v are `neighbors[row_ptr[v] .. row_ptr[v + 1])`
/// (ascending vertex id) with parallel `weights`. Traversing it costs
/// O(n + m) instead of a dense matrix scan's O(n^2).
struct CsrAdjacency {
  std::vector<std::size_t> row_ptr;  ///< size n + 1
  std::vector<VertexId> neighbors;   ///< size m, row-sorted
  std::vector<double> weights;       ///< size m, parallel to neighbors

  std::size_t vertex_count() const {
    return row_ptr.empty() ? 0 : row_ptr.size() - 1;
  }
  std::size_t edge_count() const { return neighbors.size(); }
};

/// True when an iterative DFS from vertex 0 along the rows of `adjacency`
/// reaches every vertex. Reads `row_ptr` and `neighbors` only. O(n + m).
/// Over a graph's out-rows and then over its transpose, this is
/// Kosaraju's strong-connectivity test.
bool reaches_every_vertex(const CsrAdjacency& adjacency);

/// Immutable weighted digraph. Invariants, enforced at construction: ids
/// in range, no self-preference, weights in (0, 1], and at most one edge
/// per ordered pair.
class PreferenceGraph {
 public:
  /// Builds the graph on n >= 2 vertices. Every edge needs both ids < n,
  /// from != to and a weight in [0, 1]; a repeated (from, to) throws.
  /// Weight-0 edges mean "absent" and are dropped. O(n + m).
  PreferenceGraph(std::size_t n, std::span<const WeightedEdge> edges);

  std::size_t vertex_count() const { return csr_.vertex_count(); }

  /// Number of directed edges (weight > 0). O(1).
  std::size_t edge_count() const { return csr_.edge_count(); }

  /// w(from -> to); 0 when the edge is absent. A binary search of row
  /// `from`; the bounds check is debug-only.
  double weight(VertexId from, VertexId to) const;

  bool has_edge(VertexId from, VertexId to) const {
    return weight(from, to) > 0.0;
  }

  /// Number of incoming (O(m)) / outgoing (O(1)) edges of v.
  std::size_t in_degree(VertexId v) const;
  std::size_t out_degree(VertexId v) const;

  /// An *in-node* has only incoming edges (and at least one); an *out-node*
  /// has only outgoing edges (paper §III). In-nodes must rank last,
  /// out-nodes first; two of either kind rule out any Hamiltonian path
  /// (Thm 4.3). The list queries cost O(n + m).
  bool is_in_node(VertexId v) const;
  bool is_out_node(VertexId v) const;
  std::vector<VertexId> in_nodes() const;
  std::vector<VertexId> out_nodes() const;

  /// Directed edges carrying weight exactly 1 ("1-edges", §V-B): unanimous
  /// votes. These are what preference smoothing adjusts. Row-major order.
  std::vector<std::pair<VertexId, VertexId>> one_edges() const;

  /// True when every ordered pair (i, j), i != j, has weight > 0. O(1).
  bool is_complete() const;

  /// Strong connectivity via Kosaraju's two passes: `reaches_every_vertex`
  /// over the out-edges, then over the reversed edges, whose transpose
  /// carries neighbor ids only. O(n + m). The smoothed graph must be
  /// strongly connected for Thm 5.1 to hold.
  bool is_strongly_connected() const;

  /// The out-edge CSR itself: the graph's only representation.
  const CsrAdjacency& out_csr() const { return csr_; }

  /// The transposed CSR, built on each call in O(n + m): row v lists the
  /// sources u of the edges u -> v in ascending order, with their weights.
  CsrAdjacency in_csr() const { return transpose(true); }

 private:
  /// In-degree of every vertex in one pass over the CSR.
  std::vector<std::size_t> in_degrees() const;
  /// The transposed rows; `weights` stays empty unless `with_weights`.
  CsrAdjacency transpose(bool with_weights) const;

  CsrAdjacency csr_;
};

}  // namespace crowdrank
