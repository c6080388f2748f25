// Strongly-connected-component decomposition of preference graphs.
//
// The SCC condensation of a preference graph is its "rankability
// skeleton": objects inside one component are tied up in conflicting
// evidence (cycles), while the condensation DAG is the partial order the
// votes do determine. The diagnostics report (core/diagnostics.hpp) uses
// this to explain *why* a batch will or won't aggregate cleanly, and
// Thm 5.1's machinery can be cross-checked: after smoothing the whole
// graph must be one single SCC.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/preference_graph.hpp"
#include "graph/types.hpp"

namespace crowdrank {

/// Result of an SCC decomposition.
struct SccDecomposition {
  /// component_of[v] = id of v's component, in reverse topological order
  /// of the condensation (component 0 has no incoming condensation edges
  /// ... actually: ids are assigned so that every condensation edge goes
  /// from a higher id to a lower id — Tarjan's natural order).
  std::vector<std::size_t> component_of;
  /// members[c] = vertices of component c.
  std::vector<std::vector<VertexId>> members;

  std::size_t count() const { return members.size(); }

  /// Size of the largest component.
  std::size_t largest() const;

  /// True when the whole graph is one component (Thm 5.1 precondition).
  bool single_component() const { return count() == 1; }
};

/// Tarjan's algorithm, iterative (no recursion — safe for large n).
/// O(V + E) over the graph's CSR.
SccDecomposition strongly_connected_components(const PreferenceGraph& g);

/// Condensation edges: distinct pairs (from_component, to_component) with
/// at least one crossing edge. Deduplicated, unordered.
std::vector<std::pair<std::size_t, std::size_t>> condensation_edges(
    const PreferenceGraph& g, const SccDecomposition& scc);

}  // namespace crowdrank
