// Dense-matrix references for the CSR-only PreferenceGraph.
//
// The graph layer stores a preference graph only as the CSR of its
// positive-weight out-edges. Tests that think in n x n weight matrices
// build graphs from one here. The boolean reachability closure the
// Thm 4.2/4.3 tests read lives here too, pinned against a plain dense BFS
// over all n^2 pairs.
#pragma once

#include <vector>

#include "graph/preference_graph.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// The graph whose weight w(i -> j) is weights(i, j): square, zero
/// diagonal, entries in [0, 1]; zero entries are absent edges.
PreferenceGraph graph_from_matrix(const Matrix& weights);

/// Boolean reachability closure: result(i, j) == true iff j is reachable
/// from i by a non-empty directed path. Runs one DFS per source over the
/// graph's CSR adjacency — O(n + m) per source — with sources fanned out
/// across the util/parallel pool (each source owns its output row, so the
/// result is thread-count independent).
std::vector<std::vector<bool>> reachability_closure(const PreferenceGraph& g);

/// Reference `reachability_closure`: one single-threaded BFS per source
/// that probes every vertex through `weight()`, O(n^2) per source.
std::vector<std::vector<bool>> reachability_closure_dense(
    const PreferenceGraph& g);

}  // namespace crowdrank
