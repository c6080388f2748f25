#include "core/saps_kernel.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace crowdrank {

namespace {

/// Elements per pool task when materializing the cost matrix. Large enough
/// that small closures (n <= 128) fill inline with zero dispatch cost.
constexpr std::size_t kFillGrain = 1 << 14;

/// Weights per pool task of `weight_difference_order`, in whole rows of
/// v, so a search over fewer than 2^15 weights ranks inline.
constexpr std::size_t kOrderGrain = 1 << 15;

/// The safe_log floor the cost fill bakes in; must equal the default
/// `floor_log` of math::safe_log so cost() == -safe_log(w) stays exact
/// (tests/core/test_saps_kernel.cpp pins the equality element-wise).
constexpr double kCostLogFloor = -745.0;

}  // namespace

SapsCostCache::SapsCostCache(Matrix&& weights) : costs_(std::move(weights)) {
  CR_EXPECTS(costs_.is_square(), "cost cache requires a square matrix");
  // costs[i] = -safe_log(w[i]) in place, as element-disjoint chunks on the
  // pool; the simd backend is bitwise-pinned to the scalar safe_log branch
  // structure.
  const std::span<double> buffer = costs_.data();
  parallel_for(0, buffer.size(), kFillGrain,
               [&](std::size_t b, std::size_t e) {
                 simd::neg_log_clamped(buffer.data() + b, buffer.data() + b,
                                       e - b, kCostLogFloor);
               });
}

double path_log_cost(const SapsCostCache& cache, const Path& path) {
  // Same accumulation order as the uncached path_log_cost: cost -= log
  // there is cost += (-log) here, term by term in path order (the gather
  // sum is order-sensitive, so it runs scalar on every backend).
  return simd::path_cost_sum(cache.data().data(), path.data(), path.size(),
                             cache.size());
}

double saps_rotate_delta(const SapsCostCache& cache, const Path& path,
                         std::size_t first, std::size_t middle,
                         std::size_t last) {
  CR_EXPECTS(first <= middle && middle <= last && last < path.size(),
             "rotate indices must satisfy first <= middle <= last < n");
  if (middle == first || middle == last + 1) {
    return 0.0;  // rotation is a no-op
  }
  // Mirrors the uncached saps_rotate_delta term for term (removed in-edge /
  // junction / out-edge, then the added ones) so the float sums agree
  // bitwise.
  double delta = 0.0;
  if (first > 0) {
    delta -= cache.cost(path[first - 1], path[first]);
  }
  delta -= cache.cost(path[middle - 1], path[middle]);
  if (last + 1 < path.size()) {
    delta -= cache.cost(path[last], path[last + 1]);
  }
  if (first > 0) {
    delta += cache.cost(path[first - 1], path[middle]);
  }
  delta += cache.cost(path[last], path[first]);
  if (last + 1 < path.size()) {
    delta += cache.cost(path[middle - 1], path[last + 1]);
  }
  return delta;
}

double saps_reverse_delta(const SapsCostCache& cache, const Path& path,
                          std::size_t first, std::size_t last) {
  CR_EXPECTS(first <= last && last < path.size(),
             "reverse indices must satisfy first <= last < n");
  if (first == last) {
    return 0.0;
  }
  double delta = 0.0;
  if (first > 0) {
    delta += cache.cost(path[first - 1], path[last]) -
             cache.cost(path[first - 1], path[first]);
  }
  if (last + 1 < path.size()) {
    delta += cache.cost(path[first], path[last + 1]) -
             cache.cost(path[last], path[last + 1]);
  }
  for (std::size_t k = first; k < last; ++k) {
    delta += cache.cost(path[k + 1], path[k]) -
             cache.cost(path[k], path[k + 1]);
  }
  return delta;
}

double saps_swap_delta(const SapsCostCache& cache, const Path& path,
                       std::size_t a, std::size_t b) {
  CR_EXPECTS(a < path.size() && b < path.size(), "swap indices must be < n");
  if (a == b) {
    return 0.0;
  }
  if (a > b) {
    std::swap(a, b);
  }
  const std::size_t n = path.size();
  double delta = 0.0;
  if (b == a + 1) {
    // Adjacent swap: three affected edges.
    if (a > 0) {
      delta += cache.cost(path[a - 1], path[b]) -
               cache.cost(path[a - 1], path[a]);
    }
    delta +=
        cache.cost(path[b], path[a]) - cache.cost(path[a], path[b]);
    if (b + 1 < n) {
      delta += cache.cost(path[a], path[b + 1]) -
               cache.cost(path[b], path[b + 1]);
    }
    return delta;
  }
  // Disjoint neighborhoods: four affected edges.
  if (a > 0) {
    delta += cache.cost(path[a - 1], path[b]) -
             cache.cost(path[a - 1], path[a]);
  }
  delta += cache.cost(path[b], path[a + 1]) -
           cache.cost(path[a], path[a + 1]);
  delta += cache.cost(path[b - 1], path[a]) -
           cache.cost(path[b - 1], path[b]);
  if (b + 1 < n) {
    delta += cache.cost(path[a], path[b + 1]) -
             cache.cost(path[b], path[b + 1]);
  }
  return delta;
}

Path weight_difference_order(const Matrix& weights) {
  CR_EXPECTS(weights.is_square(),
             "weight-difference order needs a square matrix");
  const std::size_t n = weights.rows();
  // Blocks of v run on the pool. In a block, row u adds its term to every
  // v's sum, so each v sums over ascending u (skipping u == v) in the
  // order of a per-v scan at any block size and thread count, and the
  // block's running sums are independent instead of one serial chain.
  const std::span<const double> w = weights.data();
  std::vector<double> diff(n, 0.0);
  const std::size_t rows_per_task = std::max<std::size_t>(
      kOrderGrain / std::max<std::size_t>(n, 1), 1);
  parallel_for(0, n, rows_per_task, [&](std::size_t v0, std::size_t v1) {
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = v0; v < v1; ++v) {
        if (u == v) continue;
        diff[v] += w[v * n + u] - w[u * n + v];  // w(v, u) - w(u, v)
      }
    }
  });
  Path order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return diff[a] > diff[b];
  });
  return order;
}

Path saps_initial_path(const SapsCostCache& cache, const Path& order,
                       VertexId start, SapsInitMode mode, bool force_anchor,
                       Rng& rng) {
  const std::size_t n = cache.size();
  switch (mode) {
    case SapsInitMode::GreedyNearestNeighbor: {
      Path path;
      path.reserve(n);
      std::vector<bool> used(n, false);
      VertexId current = start;
      path.push_back(current);
      used[current] = true;
      for (std::size_t step = 1; step < n; ++step) {
        // Minimum cost == maximum weight: -safe_log is strictly decreasing
        // on w > 0 and maps every w <= 0 to the same ceiling, and both
        // formulations keep the first best on ties, so this hops exactly
        // where the weight-matrix greedy hopped.
        VertexId best = n;
        double best_cost = std::numeric_limits<double>::infinity();
        for (VertexId next = 0; next < n; ++next) {
          if (used[next]) continue;
          if (cache.cost(current, next) < best_cost) {
            best_cost = cache.cost(current, next);
            best = next;
          }
        }
        path.push_back(best);
        used[best] = true;
        current = best;
      }
      return path;
    }
    case SapsInitMode::WeightDifferenceRanking: {
      CR_EXPECTS(order.size() == n,
                 "the weight-difference order must cover every vertex");
      Path path = order;
      if (force_anchor) {
        // Later restarts diversify by pulling their anchor vertex to the
        // front, preserving the relative order of the rest.
        const auto it = std::find(path.begin(), path.end(), start);
        std::rotate(path.begin(), it, it + 1);
      }
      return path;
    }
    case SapsInitMode::RandomPermutation: {
      auto perm = rng.permutation(n);
      Path path(perm.begin(), perm.end());
      const auto it = std::find(path.begin(), path.end(), start);
      std::swap(*path.begin(), *it);
      return path;
    }
  }
  throw Error("unknown SAPS init mode");
}

}  // namespace crowdrank
