#include "propagation_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace crowdrank {

namespace {

/// Scales `m` so its largest entry is 1; returns that entry.
double renormalize(Matrix& m) {
  const double max_entry = m.max_value();
  if (max_entry > 0.0) {
    m *= 1.0 / max_entry;
  }
  return max_entry;
}

}  // namespace

Matrix dense_doubling_closure(const PreferenceGraph& smoothed,
                              const PropagationConfig& config) {
  const std::size_t n = smoothed.vertex_count();
  const CsrAdjacency& adj = smoothed.out_csr();
  Matrix s(n, n, 0.0);
  for (VertexId i = 0; i < n; ++i) {
    for (std::size_t e = adj.row_ptr[i]; e < adj.row_ptr[i + 1]; ++e) {
      s(i, adj.neighbors[e]) = adj.weights[e];
    }
  }
  const double w_max = renormalize(s);
  if (w_max > 0.0) {
    Matrix p = s;
    double lp = std::log(w_max);
    for (std::size_t length = 1; length < config.spectral_horizon;
         length *= 2) {
      if (lp <= -700.0) {
        break;
      }
      Matrix next = lp < 700.0
                        ? Matrix::multiply_add_scaled(p, s, std::exp(-lp), s)
                        : Matrix::multiply(p, s);
      renormalize(next);
      s = std::move(next);
      if (length * 2 < config.spectral_horizon) {
        Matrix p_next = Matrix::multiply(p, p);
        const double scale = renormalize(p_next);
        p = std::move(p_next);
        lp = 2.0 * lp + std::log(std::max(scale, 1e-300));
      }
    }
  }

  const double floor = config.completeness_floor;
  Matrix closure(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double total = s(i, j) + s(j, i);
      closure(i, j) = total <= 0.0
                          ? 0.5
                          : std::clamp(s(i, j) / total, floor, 1.0 - floor);
      closure(j, i) = total <= 0.0
                          ? 0.5
                          : std::clamp(s(j, i) / total, floor, 1.0 - floor);
    }
  }
  return closure;
}

}  // namespace crowdrank
