// Uncached SAPS move deltas — the reference formulation.
//
// Each delta is the change in path_log_cost if the move were applied,
// recomputed from the closure through -safe_log(w) on every edge, without
// copying or mutating the path: O(1) for rotate (block-internal edges
// survive) and swap, O(last - first) for reverse (its interior edges flip
// direction). The annealing loop in core/saps.cpp scores proposals through
// the SapsCostCache overloads in core/saps_kernel.hpp instead; tests pin
// those to these bit for bit, and pin these to the brute-force recompute.
#pragma once

#include <cstddef>

#include "graph/types.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// Index preconditions mirror saps_rotate / saps_reverse / saps_swap.
double saps_rotate_delta(const Matrix& w, const Path& path,
                         std::size_t first, std::size_t middle,
                         std::size_t last);
double saps_reverse_delta(const Matrix& w, const Path& path,
                          std::size_t first, std::size_t last);
double saps_swap_delta(const Matrix& w, const Path& path, std::size_t a,
                       std::size_t b);

}  // namespace crowdrank
