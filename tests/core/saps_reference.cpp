#include "saps_reference.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/math.hpp"

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

}  // namespace crowdrank
