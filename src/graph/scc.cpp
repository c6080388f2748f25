#include "graph/scc.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"

namespace crowdrank {

std::size_t SccDecomposition::largest() const {
  std::size_t best = 0;
  for (const auto& m : members) {
    best = std::max(best, m.size());
  }
  return best;
}

SccDecomposition strongly_connected_components(const PreferenceGraph& g) {
  const std::size_t n = g.vertex_count();
  const CsrAdjacency& adj = g.out_csr();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);

  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<VertexId> stack;
  std::size_t next_index = 0;

  SccDecomposition result;
  result.component_of.assign(n, kUnvisited);

  // Iterative Tarjan: frame = (vertex, CSR index of the next out-edge to
  // try). Rows are ascending, so neighbors are tried in vertex-id order.
  struct Frame {
    VertexId v;
    std::size_t next;
  };
  std::vector<Frame> frames;

  for (VertexId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back(Frame{root, adj.row_ptr[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& frame = frames.back();
      const VertexId v = frame.v;
      bool descended = false;
      while (frame.next < adj.row_ptr[v + 1]) {
        const VertexId u = adj.neighbors[frame.next++];
        if (index[u] == kUnvisited) {
          index[u] = lowlink[u] = next_index++;
          stack.push_back(u);
          on_stack[u] = true;
          frames.push_back(Frame{u, adj.row_ptr[u]});
          descended = true;
          break;
        }
        if (on_stack[u]) {
          lowlink[v] = std::min(lowlink[v], index[u]);
        }
      }
      if (descended) continue;

      // v is finished: pop a component if v is a root.
      if (lowlink[v] == index[v]) {
        std::vector<VertexId> component;
        while (true) {
          const VertexId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          result.component_of[w] = result.members.size();
          if (w == v) break;
        }
        std::sort(component.begin(), component.end());
        result.members.push_back(std::move(component));
      }
      frames.pop_back();
      if (!frames.empty()) {
        const VertexId parent = frames.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  CR_ENSURES(std::all_of(result.component_of.begin(),
                         result.component_of.end(),
                         [](std::size_t c) { return c != kUnvisited; }),
             "SCC decomposition left a vertex unassigned");
  return result;
}

std::vector<std::pair<std::size_t, std::size_t>> condensation_edges(
    const PreferenceGraph& g, const SccDecomposition& scc) {
  CR_EXPECTS(scc.component_of.size() == g.vertex_count(),
             "decomposition does not match the graph");
  std::set<std::pair<std::size_t, std::size_t>> edges;
  const CsrAdjacency& adj = g.out_csr();
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (std::size_t e = adj.row_ptr[v]; e < adj.row_ptr[v + 1]; ++e) {
      const std::size_t cv = scc.component_of[v];
      const std::size_t cu = scc.component_of[adj.neighbors[e]];
      if (cv != cu) {
        edges.emplace(cv, cu);
      }
    }
  }
  return {edges.begin(), edges.end()};
}

}  // namespace crowdrank
