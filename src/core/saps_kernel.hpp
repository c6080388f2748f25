// Hot-path kernels for SAPS (Step 4): the materialized log-cost matrix.
//
// Every SAPS proposal is scored as a sum/difference of edge costs
// c(u -> v) = -log w(u, v). The closure matrix never changes during a
// search, yet the uncached formulation (the reference deltas in
// tests/core/saps_reference.hpp) re-derives each cost through `safe_log`
// on every evaluation — millions of redundant `std::log` calls per search.
// `SapsCostCache` materializes the full n x n cost matrix once per
// `saps_search` call (parallelized, element-disjoint) and the cached
// kernels below read it back with one load per edge. The search builds it
// over the closure's own storage (the Matrix&& constructor), so step 4
// adds no second n x n buffer to step 3's.
//
// Contract: every cached kernel is **bitwise-identical** to its uncached
// counterpart in tests/core/saps_reference.hpp / graph/hamiltonian.hpp.
// The cache stores exactly `-math::safe_log(w(u, v))` (including the
// safe_log floor for w <= 0), and each kernel accumulates its terms in the
// same order as the uncached code, so no float rounding can diverge.
// tests/core/test_saps_kernel.cpp pins this bit for bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>

#include "core/saps.hpp"
#include "graph/types.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// Immutable -log w cost matrix over a square weight matrix. Built once
/// per search.
class SapsCostCache {
 public:
  /// Materializes cost(u, v) = -safe_log(w(u, v)) for all pairs over
  /// `weights`' own storage, which the cache then owns: a search holds one
  /// n x n buffer, not two. The fill is an element-disjoint parallel
  /// transform that reads each element just before it writes it, so it is
  /// bitwise-identical at any thread count.
  explicit SapsCostCache(Matrix&& weights);

  /// The same fill over a copy of `weights`.
  explicit SapsCostCache(const Matrix& weights)
      : SapsCostCache(Matrix(weights)) {}

  std::size_t size() const { return costs_.rows(); }

  /// Edge cost c(u -> v); exactly -safe_log(weights(u, v)).
  double cost(VertexId u, VertexId v) const { return costs_(u, v); }

  /// Row-major raw cost matrix (size * size), for the batch kernels.
  std::span<const double> data() const { return costs_.data(); }

 private:
  Matrix costs_;
};

/// Total path cost sum of c(p[i] -> p[i+1]); bitwise-identical to
/// path_log_cost(weights, path) from graph/hamiltonian.hpp.
double path_log_cost(const SapsCostCache& cache, const Path& path);

/// Incremental objective deltas: the change in path_log_cost if the move
/// were applied, computed without copying or mutating the path — O(1) for
/// rotate and swap, O(last - first) for reverse. The annealing loop scores
/// every proposal through these. Bitwise-identical to the uncached Matrix
/// overloads in tests/core/saps_reference.hpp; index preconditions mirror
/// saps_rotate / saps_reverse / saps_swap.
double saps_rotate_delta(const SapsCostCache& cache, const Path& path,
                         std::size_t first, std::size_t middle,
                         std::size_t last);
double saps_reverse_delta(const SapsCostCache& cache, const Path& path,
                          std::size_t first, std::size_t last);
double saps_swap_delta(const SapsCostCache& cache, const Path& path,
                       std::size_t a, std::size_t b);

/// Algorithm 3's Metropolis decision for a worse move: accept when
/// `u < exp(x)`, where `u` is one `Rng::uniform()` draw in [0, 1) and
/// x = -(d_next - d_cur) / T. Equal to `u < clamp(exp(x), 0, 1)` for every
/// such u and every x, NaN included. Below x = -40, exp(x) < 2^-53, which
/// every nonzero draw exceeds, so the outcome is decided without calling
/// exp unless u == 0.
inline bool saps_metropolis_accept(double u, double x) {
  if (x < -40.0) {
    return u == 0.0 && u < std::exp(x);
  }
  return u < std::exp(x);
}

/// Algorithm 2's weight-difference ranking: every vertex v by descending
/// sum over u != v of w(v, u) - w(u, v), taken in ascending u, ties kept
/// in id order. `saps_search` builds it once per search and every
/// WeightDifferenceRanking restart starts from a copy. Blocks of v run on
/// the pool, each v's sum in the same order: the same bits at any thread
/// count.
Path weight_difference_order(const Matrix& weights);

/// Restart-chain initial path (Algorithm 2 line 3), routed through the
/// cache. GreedyNearestNeighbor picks the minimum-cost unvisited successor,
/// which selects exactly the maximum-weight successor the uncached code
/// picked (-log is strictly decreasing and ties map to ties), so the
/// produced paths are identical. WeightDifferenceRanking copies `order`
/// (the search's `weight_difference_order`; the other modes ignore it) and
/// pulls `start` to the front when `force_anchor` is set.
/// RandomPermutation draws from the rng.
Path saps_initial_path(const SapsCostCache& cache, const Path& order,
                       VertexId start, SapsInitMode mode, bool force_anchor,
                       Rng& rng);

}  // namespace crowdrank
