#include "core/propagation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "graph/transitive_closure.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace crowdrank {

namespace {

/// Rows per pool task in the O(n^2) element-wise passes. Each (i, j) pair
/// with i < j is owned by row i's chunk and writes only closure(i, j) /
/// closure(j, i), so any row partition yields identical results; the
/// evidence counter is an exact integer-sum reduction.
constexpr std::size_t kRowGrain = 16;

/// The power iteration has converged once no entry of u or v changes by
/// more than this, relative to its new value, in one step.
constexpr double kPerronTolerance = 1e-14;

/// Edge count from which a power-iteration pass runs on the pool: below
/// ~2^15 edges a pool round trip costs more than the pass itself.
constexpr std::size_t kPerronPoolEdges = std::size_t{1} << 15;

/// Rows per pool task in a power-iteration pass.
constexpr std::size_t kPerronRowGrain = 64;

/// The dense n x n weight matrix of a CSR graph: the doubling's starting
/// state, and the direct matrix of the BoundedWalks and ExactPaths
/// engines, which are dense by nature. The one place this file
/// materializes a pre-closure graph densely.
Matrix dense_weights(const CsrAdjacency& adj) {
  const std::size_t n = adj.vertex_count();
  Matrix dense(n, n, 0.0);  // lint:allow(dense-in-propagation)
  for (VertexId i = 0; i < n; ++i) {
    for (std::size_t e = adj.row_ptr[i]; e < adj.row_ptr[i + 1]; ++e) {
      dense(i, adj.neighbors[e]) = adj.weights[e];
    }
  }
  return dense;
}

/// S = sum_{k=1..L} W^k by doubling, max-renormalized each step (only the
/// entry *ratios* of S survive, which is all the pair-normalized closure
/// needs). L = smallest power of two >= the configured target length.
/// Runs on the blocked dense Matrix kernels from the first step: the
/// recurrence pinned under tests/core/ as the oracle. Diagnostics land in
/// `stats` and the propagation.* trace metrics.
Matrix spectral_walk_sum(const PreferenceGraph& smoothed,
                         const PropagationConfig& config,
                         PropagationStats& stats) {
  const std::size_t n = smoothed.vertex_count();
  const std::size_t target = config.spectral_horizon > 0
                                 ? config.spectral_horizon
                                 : std::max(config.max_length, n);

  // Per-doubling-step trace: the log-scale of W^m ("residual" of the power
  // iteration — how far the high-order terms have decayed), the carry
  // factor that re-injects S(m), and a count of the full-matrix max scans.
  // Pure observation of existing state.
  metrics::Counter* trace_steps = trace::counter("propagation.power_steps");
  metrics::Counter* trace_scans =
      trace::counter("propagation.renormalize_scans");
  metrics::Series* trace_lp = trace::series("propagation.lp");
  metrics::Series* trace_carry = trace::series("propagation.carry");

  const auto renormalize = [&](Matrix& m) {
    // Parallel exact max-reduce + parallel scale; both are element-disjoint
    // or rounding-free, so the pass is bitwise-stable at any thread count.
    const double max_entry = m.max_value();
    if (max_entry > 0.0) {
      m *= 1.0 / max_entry;
    }
    if (trace_scans != nullptr) trace_scans->add(1);
    return max_entry;
  };

  // Invariants: s_hat ∝ S(m), p_hat = W^m / e^{lp} with max entry 1.
  Matrix s = dense_weights(smoothed.out_csr());
  const double w_max = renormalize(s);
  if (w_max <= 0.0) {
    return s;  // edgeless graph: no evidence anywhere
  }
  stats.fill_ratio = 1.0;
  Matrix p = s;
  double lp = std::log(w_max);
  std::size_t length = 1;
  std::size_t step = 0;

  while (length < target) {
    // S(2m) = S(m) + W^m * S(m)  ==>  (up to global scale)
    // s' = p_hat * s_hat + e^{-lp} * s_hat.
    if (lp <= -700.0) {
      // W^m is vanishingly small against S(m): the sum has converged.
      break;
    }
    // On the final doubling step p_hat is dead after the s update — the
    // loop exits and only s_hat survives — so its squaring (the single
    // most expensive multiply of the step) is skipped. No result bit
    // depends on it.
    const bool last = length * 2 >= target;
    ++step;
    // The carry add is fused into the product's parallel pass: each row
    // task applies `+ carry * s_hat` right after producing its rows,
    // while they are cache-hot, instead of a second full sweep. Outside
    // the carry band one term dominates.
    Matrix next = lp < 700.0
                      ? Matrix::multiply_add_scaled(p, s, std::exp(-lp), s)
                      : Matrix::multiply(p, s);
    renormalize(next);
    s = std::move(next);
    if (!last) {
      Matrix p_next = Matrix::multiply(p, p);
      const double scale = renormalize(p_next);
      p = std::move(p_next);
      lp = 2.0 * lp + std::log(std::max(scale, 1e-300));
    }
    length *= 2;

    if (trace_steps != nullptr) {
      trace_steps->add(1);
      if (!last) {
        const double len = static_cast<double>(length);
        trace::push_series(trace_lp, len, lp);
        trace::push_series(trace_carry, len,
                           lp < 700.0 && lp > -700.0 ? std::exp(-lp) : 0.0);
      }
    }
  }
  stats.doubling_steps = step;
  stats.densify_step = step > 0 ? 1 : 0;
  return s;
}

struct PowerStep {
  double top = 0.0;     ///< max(A x): the eigenvalue estimate once converged
  double change = 0.0;  ///< max_i |y_i - x_i| / y_i; +inf on a zero entry
};

/// One power-iteration step y = A x / max(A x) over the rows of `a` (W's
/// CSR for u, its transpose for v). Each row sums in CSR order and the
/// max-reduce is exact, so the bits do not depend on the thread count.
PowerStep power_step(const CsrAdjacency& a, const std::vector<double>& x,
                     std::vector<double>& y) {
  const std::size_t n = a.vertex_count();
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    double top = 0.0;
    for (std::size_t i = r0; i < r1; ++i) {
      double sum = 0.0;
      for (std::size_t e = a.row_ptr[i]; e < a.row_ptr[i + 1]; ++e) {
        sum += a.weights[e] * x[a.neighbors[e]];
      }
      y[i] = sum;
      top = std::max(top, sum);
    }
    return top;
  };
  PowerStep step;
  step.top = a.edge_count() >= kPerronPoolEdges
                 ? parallel_reduce(std::size_t{0}, n, kPerronRowGrain, 0.0,
                                   rows,
                                   [](double p, double q) {
                                     return std::max(p, q);
                                   })
                 : rows(0, n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = step.top > 0.0 ? y[i] / step.top : 0.0;
    if (y[i] == 0.0) {
      step.change = std::numeric_limits<double>::infinity();
      return step;
    }
    step.change = std::max(step.change, std::abs(y[i] - x[i]) / y[i]);
  }
  return step;
}

/// W's right (W u = lambda u) and left (v^T W = lambda v^T) Perron vectors,
/// max-normalized, by power iteration in lockstep. Once W^k dominates, the
/// doubling's sum_{k<=L} W^k is rank one, proportional to u v^T, so its
/// pair-normalized closure is u_i v_j / (u_i v_j + u_j v_i). Returns
/// false, and the caller runs the doubling instead, unless that holds to
/// the tolerance:
///  * W is strongly connected. Otherwise u and v may have zero entries,
///    or, with equal roots in two components, a converged iteration stands
///    for a sum that is not rank one.
///  * Both vectors converge within L = `length` steps, so the walk mixes
///    within the doubling's own length. A periodic W never converges. The
///    start vector is pseudo-random, not all-ones: on a graph whose row
///    and column sums are all equal, all-ones is already the Perron vector
///    and would converge at once whether or not the walk mixes.
///  * lambda^L outweighs the sum's other terms, at most ~n L walks' worth
///    against lambda^L min(u) min(v) for the Perron term, by
///    1 / kPerronTolerance. A light W (lambda < 1, say) sums to its short
///    walks instead.
bool perron_vectors(const PreferenceGraph& smoothed, std::size_t length,
                    std::vector<double>& u, std::vector<double>& v,
                    PropagationStats& stats) {
  // Kosaraju's two passes, the second over the transpose the left
  // iteration needs anyway: W is transposed once per call.
  const CsrAdjacency& out = smoothed.out_csr();
  if (!reaches_every_vertex(out)) {
    return false;
  }
  const CsrAdjacency in = smoothed.in_csr();
  if (!reaches_every_vertex(in)) {
    return false;
  }
  const std::size_t n = out.vertex_count();
  u.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = 1.0 + static_cast<double>(task_stream_seed(0, i) >> 11) * 0x1p-53;
  }
  v = u;
  std::vector<double> next(n);
  double previous = 0.0;
  while (stats.perron_iterations < length) {
    ++stats.perron_iterations;
    const PowerStep right = power_step(out, u, next);
    u.swap(next);
    const PowerStep left = power_step(in, v, next);
    v.swap(next);
    const double change = std::max(right.change, left.change);
    if (!std::isfinite(change)) {
      return false;  // an entry underflowed to zero
    }
    if (previous > 0.0) {
      stats.perron_ratio = change / previous;
    }
    previous = change;
    if (change <= kPerronTolerance) {
      const double len = static_cast<double>(length);
      return len * std::log(right.top) +
                 std::log(*std::ranges::min_element(u)) +
                 std::log(*std::ranges::min_element(v)) >=
             std::log(static_cast<double>(n) * len / kPerronTolerance);
    }
  }
  return false;
}

/// The closure from ordered pair weights: w_ij / (w_ij + w_ji) clamped into
/// [floor, 1 - floor], or the uninformative 0.5 / 0.5 where a pair has no
/// evidence (Thm 5.1 needs every pair), counted into `missing`. Every
/// engine's closure is filled here.
template <typename PairWeight>
Matrix pair_normalize(std::size_t n, double floor, const PairWeight& weight,
                      std::size_t& missing) {
  Matrix closure(n, n, 0.0);  // lint:allow(dense-in-propagation)
  missing = parallel_reduce(
      std::size_t{0}, n, kRowGrain, std::size_t{0},
      [&](std::size_t r0, std::size_t r1) {
        std::size_t holes = 0;
        for (std::size_t i = r0; i < r1; ++i) {
          for (std::size_t j = i + 1; j < n; ++j) {
            double wij = weight(i, j);
            double wji = weight(j, i);
            const double total = wij + wji;
            if (total <= 0.0) {
              wij = 0.5;
              wji = 0.5;
              ++holes;
            } else {
              wij = std::clamp(wij / total, floor, 1.0 - floor);
              wji = std::clamp(wji / total, floor, 1.0 - floor);
            }
            closure(i, j) = wij;
            closure(j, i) = wji;
          }
        }
        return holes;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return closure;
}

}  // namespace

Matrix propagate_preferences(const PreferenceGraph& smoothed,
                             const PropagationConfig& config,
                             PropagationStats* stats) {
  CR_EXPECTS(config.alpha >= 0.0 && config.alpha <= 1.0,
             "alpha must be in [0, 1]");
  CR_EXPECTS(config.max_length >= 2, "indirect paths have length >= 2");
  CR_EXPECTS(config.completeness_floor > 0.0 &&
                 config.completeness_floor < 0.5,
             "completeness floor must be in (0, 0.5)");
  const std::size_t n = smoothed.vertex_count();

  if (config.mode == PropagationMode::SpectralLimit) {
    CR_EXPECTS(config.spectral_horizon == 0 || config.spectral_horizon >= 2,
               "spectral horizon must be 0 (auto) or >= 2");
    // Both engines sum walks from the direct (k = 1) term on, and the
    // global scale is normalized away, so the closure is simply the
    // pair-normalized sum (alpha is documented as ignored). With the auto
    // horizon the sum is taken from its rank-one Perron limit wherever
    // that limit holds at the doubling's own length L.
    PropagationStats local;
    const double floor = config.completeness_floor;
    const std::size_t length = std::bit_ceil(std::max(config.max_length, n));
    std::vector<double> u;
    std::vector<double> v;
    Matrix closure;
    if (config.spectral_horizon == 0 &&
        perron_vectors(smoothed, length, u, v, local)) {
      closure = pair_normalize(
          n, floor,
          [&](std::size_t i, std::size_t j) { return u[i] * v[j]; },
          local.pairs_without_evidence);
    } else {
      local.perron_fallback = config.spectral_horizon == 0;
      const Matrix sum = spectral_walk_sum(smoothed, config, local);
      closure = pair_normalize(
          n, floor,
          [&](std::size_t i, std::size_t j) { return sum(i, j); },
          local.pairs_without_evidence);
    }
    // One sink snapshot for all (see trace::counter).
    if (trace::TraceSink* sink = trace::sink()) {
      metrics::Registry& registry = sink->metrics();
      registry.counter("propagation.perron_iterations")
          .add(local.perron_iterations);
      registry.counter("propagation.perron_fallback")
          .add(local.perron_fallback ? 1 : 0);
      registry.gauge("propagation.perron_ratio").set(local.perron_ratio);
    }
    local.complete = true;
    if (metrics::Counter* c =
            trace::counter("propagation.pairs_without_evidence")) {
      c->add(local.pairs_without_evidence);
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return closure;
  }

  // The bounded-walks / exact-paths engines blend against the dense
  // direct matrix pairwise.
  const CsrAdjacency& adj = smoothed.out_csr();
  const Matrix direct = dense_weights(adj);
  Matrix indirect =
      config.mode == PropagationMode::BoundedWalks
          ? walk_indirect_preferences(direct, config.max_length)
          : exact_indirect_preferences(smoothed, config.max_length);

  if (config.aggregation == PathAggregation::Average) {
    // Divide each pair's walk-sum by the number of contributing walks so
    // w* stays on the direct weights' [0,1] scale. The count matrix reuses
    // the same engine over the direct edges at weight 1; the O(n^2)
    // normalization runs as element-disjoint row blocks on the pool.
    std::vector<WeightedEdge> unit_edges;
    unit_edges.reserve(adj.edge_count());
    for (VertexId i = 0; i < n; ++i) {
      for (std::size_t e = adj.row_ptr[i]; e < adj.row_ptr[i + 1]; ++e) {
        unit_edges.push_back({i, adj.neighbors[e], 1.0});
      }
    }
    const PreferenceGraph indicator(n, unit_edges);
    const Matrix counts =
        config.mode == PropagationMode::BoundedWalks
            ? walk_indirect_preferences(dense_weights(indicator.out_csr()),
                                        config.max_length)
            : exact_indirect_preferences(indicator, config.max_length);
    parallel_for(0, n, kRowGrain, [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (counts(i, j) > 0.0) {
            indirect(i, j) /= counts(i, j);
          }
        }
      }
    });
  }

  // No direct vote and no transitive evidence within max_length leaves a
  // pair at the uninformative prior, keeping the closure complete.
  PropagationStats local;
  const Matrix closure = pair_normalize(
      n, config.completeness_floor,
      [&](std::size_t i, std::size_t j) {
        return config.alpha * direct(i, j) +
               (1.0 - config.alpha) * indirect(i, j);
      },
      local.pairs_without_evidence);

  // Completeness scan as an AND-reduction over row chunks. Each chunk
  // keeps the serial loop's early exit (it stops at its first hole), and
  // logical AND is exact, so the verdict matches the serial scan at any
  // thread count.
  local.complete = parallel_reduce(
      std::size_t{0}, n, kRowGrain, true,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i != j && closure(i, j) <= 0.0) {
              return false;
            }
          }
        }
        return true;
      },
      [](bool acc, bool part) { return acc && part; });
  if (metrics::Counter* c =
          trace::counter("propagation.pairs_without_evidence")) {
    c->add(local.pairs_without_evidence);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return closure;
}

}  // namespace crowdrank
