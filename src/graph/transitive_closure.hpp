// Transitive-closure machinery (paper §III and §V-C).
//
// The exact simple-path weight accumulator implements the paper's literal
// definition of indirect preference — the sum over all simple paths from
// i to j (2 <= length <= max_len) of the product of edge weights.
// Exhaustive path enumeration is exponential, so this is only used for
// small n (tests, the 10/20-object AMT settings); production propagation
// uses the bounded-walk matrix-power approximation in core/propagation
// (see DESIGN.md substitution #3).
#pragma once

#include <cstddef>

#include "graph/preference_graph.hpp"
#include "graph/types.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// Exact indirect preference per the paper's definition: for every ordered
/// pair (i, j), the sum over all *simple* directed paths i -> ... -> j with
/// length in [2, max_len] of the product of edge weights along the path.
/// Exponential in the worst case; intended for n <= ~12.
Matrix exact_indirect_preferences(const PreferenceGraph& g,
                                  std::size_t max_len);

/// Bounded-length walk propagation: sum_{k=2..max_len} W^k, the production
/// approximation of `exact_indirect_preferences` (walks revisit vertices but
/// every revisit multiplies in more sub-1 weights, so the error decays
/// geometrically). O(max_len * n^3).
Matrix walk_indirect_preferences(const Matrix& weights, std::size_t max_len);

}  // namespace crowdrank
