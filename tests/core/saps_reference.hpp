// Uncached SAPS move deltas and the whole search built on them — the
// reference formulation.
//
// Each delta is the change in path_log_cost if the move were applied,
// recomputed from the closure through -safe_log(w) on every edge, without
// copying or mutating the path: O(1) for rotate (block-internal edges
// survive) and swap, O(last - first) for reverse (its interior edges flip
// direction). The annealing loop in core/saps.cpp scores proposals through
// the SapsCostCache overloads in core/saps_kernel.hpp instead; tests pin
// those to these bit for bit, and pin these to the brute-force recompute.
//
// `saps_search_reference` is the search as core/saps.cpp ran it before
// the shared start: restarts run serially on the caller, each rebuilds its
// own start (the weight-difference ranking by a per-vertex column scan),
// proposals are scored by the uncached deltas, and a worse move is
// accepted by `bernoulli(exp(x))`. tests/core/test_determinism.cpp pins
// `saps_search` to it bit for bit at 1 and 4 threads.
#pragma once

#include <cstddef>

#include "core/saps.hpp"
#include "graph/types.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// Index preconditions mirror saps_rotate / saps_reverse / saps_swap.
double saps_rotate_delta(const Matrix& w, const Path& path,
                         std::size_t first, std::size_t middle,
                         std::size_t last);
double saps_reverse_delta(const Matrix& w, const Path& path,
                          std::size_t first, std::size_t last);
double saps_swap_delta(const Matrix& w, const Path& path, std::size_t a,
                       std::size_t b);

/// Same contract, seeding and result as `saps_search`.
SapsResult saps_search_reference(const Matrix& closure,
                                 const SapsConfig& config, Rng& rng);

}  // namespace crowdrank
