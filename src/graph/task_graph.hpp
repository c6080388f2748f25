// Task graph (paper §III): an unweighted, undirected simple graph whose
// vertices are the objects to rank and whose edges are the pairwise
// comparison tasks sent to the crowd. Fairness (Def. 4.1 / Thm 4.1) and
// HP-likelihood (Thm 4.4) are both functions of this graph's degree
// sequence, so the class exposes degree statistics alongside standard
// adjacency queries.
//
// Layout: the edge list and each vertex's neighbor row keep insertion
// order (task order is what HIT packing and every later stage sees), and
// a FlatSet of the canonical edges, keyed first * n + second, answers
// `has_edge` and the duplicate check of `add_edge` in one probe.
// `remove_edge` erases in place and keeps the order of everything that
// remains, so a graph edited by removals and additions equals one built
// from its final edge list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/flat_set.hpp"

namespace crowdrank {

/// Undirected simple graph over n vertices.
class TaskGraph {
 public:
  /// Graph with n isolated vertices; 2 <= n <= 2^32.
  explicit TaskGraph(std::size_t n);

  std::size_t vertex_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Adds the undirected edge {a, b}. Returns false (and does nothing) if
  /// the edge already exists. Throws on a == b or out-of-range vertices.
  bool add_edge(VertexId a, VertexId b);

  /// Removes the undirected edge {a, b}. Returns false (and does nothing)
  /// if there is no such edge. Throws on out-of-range vertices. The
  /// remaining edges and neighbors keep their insertion order.
  bool remove_edge(VertexId a, VertexId b);

  bool has_edge(VertexId a, VertexId b) const;

  /// Degree of v (number of incident edges).
  std::size_t degree(VertexId v) const;

  /// Neighbors of v in insertion order.
  std::span<const VertexId> neighbors(VertexId v) const;

  /// All edges in canonical (first < second) form, insertion order.
  std::span<const Edge> edges() const { return edges_; }

  std::size_t min_degree() const;
  std::size_t max_degree() const;

  /// True when every vertex has the same degree (fair tasks, Thm 4.1).
  bool is_regular() const;

  /// True when the graph is connected (single BFS component).
  bool is_connected() const;

  /// True if `path` is a Hamiltonian path of this graph: visits every vertex
  /// exactly once via existing edges.
  bool is_hamiltonian_path(const Path& path) const;

 private:
  void check_vertex(VertexId v) const;
  /// The key of edge {a, b}: first * n + second, below n^2 - n.
  std::uint64_t key(VertexId a, VertexId b) const;

  std::vector<std::vector<VertexId>> adjacency_;  ///< insertion order
  std::vector<Edge> edges_;
  FlatSet edge_keys_;
};

}  // namespace crowdrank
