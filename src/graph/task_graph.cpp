#include "graph/task_graph.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace crowdrank {

namespace {

/// Erases the one occurrence of `value` from `row`, keeping the order of
/// the rest.
template <class T>
void erase_value(std::vector<T>& row, const T& value) {
  row.erase(std::find(row.begin(), row.end(), value));
}

}  // namespace

TaskGraph::TaskGraph(std::size_t n) : adjacency_(n) {
  CR_EXPECTS(n >= 2, "a task graph needs at least two objects");
  CR_EXPECTS(n <= (std::size_t{1} << 32),
             "a task graph holds at most 2^32 objects");
}

void TaskGraph::check_vertex(VertexId v) const {
  CR_EXPECTS(v < adjacency_.size(), "vertex id out of range");
}

std::uint64_t TaskGraph::key(VertexId a, VertexId b) const {
  const Edge e = Edge::canonical(a, b);
  return std::uint64_t{e.first} * adjacency_.size() + e.second;
}

bool TaskGraph::add_edge(VertexId a, VertexId b) {
  check_vertex(a);
  check_vertex(b);
  CR_EXPECTS(a != b, "self-comparisons are not valid tasks");
  if (!edge_keys_.insert(key(a, b))) {
    return false;
  }
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  edges_.push_back(Edge::canonical(a, b));
  return true;
}

bool TaskGraph::remove_edge(VertexId a, VertexId b) {
  check_vertex(a);
  check_vertex(b);
  if (a == b || !edge_keys_.erase(key(a, b))) {
    return false;
  }
  erase_value(adjacency_[a], b);
  erase_value(adjacency_[b], a);
  erase_value(edges_, Edge::canonical(a, b));
  return true;
}

bool TaskGraph::has_edge(VertexId a, VertexId b) const {
  check_vertex(a);
  check_vertex(b);
  return a != b && edge_keys_.contains(key(a, b));
}

std::size_t TaskGraph::degree(VertexId v) const {
  check_vertex(v);
  return adjacency_[v].size();
}

std::span<const VertexId> TaskGraph::neighbors(VertexId v) const {
  check_vertex(v);
  return adjacency_[v];
}

std::size_t TaskGraph::min_degree() const {
  std::size_t best = adjacency_[0].size();
  for (const auto& nbrs : adjacency_) {
    best = std::min(best, nbrs.size());
  }
  return best;
}

std::size_t TaskGraph::max_degree() const {
  std::size_t best = adjacency_[0].size();
  for (const auto& nbrs : adjacency_) {
    best = std::max(best, nbrs.size());
  }
  return best;
}

bool TaskGraph::is_regular() const { return min_degree() == max_degree(); }

bool TaskGraph::is_connected() const {
  const std::size_t n = vertex_count();
  std::vector<bool> seen(n, false);
  std::queue<VertexId> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (const VertexId u : adjacency_[v]) {
      if (!seen[u]) {
        seen[u] = true;
        ++visited;
        frontier.push(u);
      }
    }
  }
  return visited == n;
}

bool TaskGraph::is_hamiltonian_path(const Path& path) const {
  const std::size_t n = vertex_count();
  if (path.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const VertexId v : path) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!has_edge(path[i], path[i + 1])) return false;
  }
  return true;
}

}  // namespace crowdrank
