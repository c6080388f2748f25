#include "saps_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/hamiltonian.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace crowdrank {

namespace {

/// Edge cost c(u -> v) = -log w(u, v), with the safe_log floor.
double edge_cost(const Matrix& w, VertexId u, VertexId v) {
  return -math::safe_log(w(u, v));
}

}  // namespace

double saps_rotate_delta(const Matrix& w, const Path& path,
                         std::size_t first, std::size_t middle,
                         std::size_t last) {
  CR_EXPECTS(first <= middle && middle <= last && last < path.size(),
             "rotate indices must satisfy first <= middle <= last < n");
  if (middle == first || middle == last + 1) {
    return 0.0;  // rotation is a no-op
  }
  // After the rotation the range becomes B = path[middle..last] followed by
  // A = path[first..middle-1]; edges internal to A and B are untouched.
  double delta = 0.0;
  // Removed: in-edge to A's head, the A->B junction, B's out-edge.
  if (first > 0) {
    delta -= edge_cost(w, path[first - 1], path[first]);
  }
  delta -= edge_cost(w, path[middle - 1], path[middle]);
  if (last + 1 < path.size()) {
    delta -= edge_cost(w, path[last], path[last + 1]);
  }
  // Added: in-edge to B's head, the B->A junction, A's out-edge.
  if (first > 0) {
    delta += edge_cost(w, path[first - 1], path[middle]);
  }
  delta += edge_cost(w, path[last], path[first]);
  if (last + 1 < path.size()) {
    delta += edge_cost(w, path[middle - 1], path[last + 1]);
  }
  return delta;
}

double saps_reverse_delta(const Matrix& w, const Path& path,
                          std::size_t first, std::size_t last) {
  CR_EXPECTS(first <= last && last < path.size(),
             "reverse indices must satisfy first <= last < n");
  if (first == last) {
    return 0.0;
  }
  double delta = 0.0;
  // Boundary edges swap endpoints.
  if (first > 0) {
    delta += edge_cost(w, path[first - 1], path[last]) -
             edge_cost(w, path[first - 1], path[first]);
  }
  if (last + 1 < path.size()) {
    delta += edge_cost(w, path[first], path[last + 1]) -
             edge_cost(w, path[last], path[last + 1]);
  }
  // Interior edges flip direction.
  for (std::size_t k = first; k < last; ++k) {
    delta += edge_cost(w, path[k + 1], path[k]) -
             edge_cost(w, path[k], path[k + 1]);
  }
  return delta;
}

double saps_swap_delta(const Matrix& w, const Path& path, std::size_t a,
                       std::size_t b) {
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
      delta += edge_cost(w, path[a - 1], path[b]) -
               edge_cost(w, path[a - 1], path[a]);
    }
    delta += edge_cost(w, path[b], path[a]) - edge_cost(w, path[a], path[b]);
    if (b + 1 < n) {
      delta += edge_cost(w, path[a], path[b + 1]) -
               edge_cost(w, path[b], path[b + 1]);
    }
    return delta;
  }
  // Disjoint neighborhoods: four affected edges.
  if (a > 0) {
    delta += edge_cost(w, path[a - 1], path[b]) -
             edge_cost(w, path[a - 1], path[a]);
  }
  delta += edge_cost(w, path[b], path[a + 1]) -
           edge_cost(w, path[a], path[a + 1]);
  delta += edge_cost(w, path[b - 1], path[a]) -
           edge_cost(w, path[b - 1], path[b]);
  if (b + 1 < n) {
    delta += edge_cost(w, path[a], path[b + 1]) -
             edge_cost(w, path[b], path[b + 1]);
  }
  return delta;
}

namespace {

/// One restart's start, rebuilt from the weights every time.
Path reference_initial_path(const Matrix& w, VertexId start,
                            SapsInitMode mode, bool force_anchor, Rng& rng) {
  const std::size_t n = w.rows();
  switch (mode) {
    case SapsInitMode::GreedyNearestNeighbor: {
      Path path{start};
      std::vector<bool> used(n, false);
      used[start] = true;
      for (std::size_t step = 1; step < n; ++step) {
        VertexId best = n;
        double best_cost = std::numeric_limits<double>::infinity();
        for (VertexId next = 0; next < n; ++next) {
          if (!used[next] && edge_cost(w, path.back(), next) < best_cost) {
            best_cost = edge_cost(w, path.back(), next);
            best = next;
          }
        }
        path.push_back(best);
        used[best] = true;
      }
      return path;
    }
    case SapsInitMode::WeightDifferenceRanking: {
      std::vector<double> diff(n, 0.0);
      for (VertexId v = 0; v < n; ++v) {
        for (VertexId u = 0; u < n; ++u) {
          if (u == v) continue;
          diff[v] += w(v, u) - w(u, v);
        }
      }
      Path path(n);
      std::iota(path.begin(), path.end(), VertexId{0});
      std::stable_sort(path.begin(), path.end(), [&](VertexId a, VertexId b) {
        return diff[a] > diff[b];
      });
      if (force_anchor) {
        const auto it = std::find(path.begin(), path.end(), start);
        std::rotate(path.begin(), it, it + 1);
      }
      return path;
    }
    case SapsInitMode::RandomPermutation: {
      const auto perm = rng.permutation(n);
      Path path(perm.begin(), perm.end());
      std::swap(path.front(),
                *std::find(path.begin(), path.end(), start));
      return path;
    }
  }
  throw Error("unknown SAPS init mode");
}

}  // namespace

SapsResult saps_search_reference(const Matrix& closure,
                                 const SapsConfig& config, Rng& rng) {
  const std::size_t n = closure.rows();
  const std::size_t restarts =
      config.paper_mode ? n : std::min(config.restarts, n);
  const std::uint64_t stream_base = rng();

  SapsResult result;
  double winner_cost = 0.0;
  for (std::size_t restart = 0; restart < restarts; ++restart) {
    Rng chain(task_stream_seed(stream_base, restart));
    const auto accept = [&](double d_cur, double d_next, double temp) {
      if (d_next < d_cur) return true;
      if (temp <= 0.0) return false;
      return chain.bernoulli(std::exp(-(d_next - d_cur) / temp));
    };

    Path current =
        reference_initial_path(closure, static_cast<VertexId>(restart % n),
                               config.init_mode, restart > 0, chain);
    double d_cur = path_log_cost(closure, current);
    double best_cost = d_cur;
    Path best_path = current;
    double temp = config.initial_temperature;
    for (std::size_t iter = 0; iter < config.iterations; ++iter) {
      for (int move = 0; move < 3; ++move) {
        if (move == 0 && !config.use_rotate) continue;
        if (move == 1 && !config.use_reverse) continue;
        if (move == 2 && !config.use_swap) continue;
        double delta = 0.0;
        std::size_t p0 = 0;
        std::size_t p1 = 0;
        std::size_t p2 = 0;
        if (move == 0) {
          p0 = chain.uniform_index(n);
          p2 = chain.uniform_index(n);
          if (p0 > p2) std::swap(p0, p2);
          p1 = p0 + chain.uniform_index(p2 - p0 + 1);
          delta = saps_rotate_delta(closure, current, p0, p1, p2);
        } else if (move == 1) {
          p0 = chain.uniform_index(n);
          p1 = chain.uniform_index(n);
          if (p0 > p1) std::swap(p0, p1);
          delta = saps_reverse_delta(closure, current, p0, p1);
        } else {
          p0 = chain.uniform_index(n);
          p1 = chain.uniform_index(n - 1);
          if (p1 >= p0) ++p1;
          delta = saps_swap_delta(closure, current, p0, p1);
        }
        ++result.moves_proposed;
        if (!accept(d_cur, d_cur + delta, temp)) continue;
        if (move == 0) {
          saps_rotate(current, p0, p1, p2);
        } else if (move == 1) {
          saps_reverse(current, p0, p1);
        } else {
          saps_swap(current, p0, p1);
        }
        d_cur += delta;
        ++result.moves_accepted;
        if (d_cur < best_cost) {
          best_cost = d_cur;
          best_path = current;
        }
      }
      temp *= config.cooling_rate;
    }
    // Earliest restart wins exact ties.
    if (restart == 0 || best_cost < winner_cost) {
      winner_cost = best_cost;
      result.best_path = std::move(best_path);
    }
    ++result.restarts_run;
  }
  result.log_cost = path_log_cost(closure, result.best_path);
  result.probability = std::exp(-result.log_cost);
  return result;
}

}  // namespace crowdrank
