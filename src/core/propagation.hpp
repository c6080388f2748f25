// Step 3 — computation of indirect pairwise preferences (paper §V-C).
//
// Transitivity turns paths of the smoothed graph into hidden edges: a path
// i -> ... -> j of length >= 2 contributes the product of its edge weights
// to the indirect preference w*_ij, and all contributing paths sum with
// equal importance. The final preference blends direct and indirect
// evidence, w_check = alpha * w + (1 - alpha) * w*, and each ordered pair
// is then normalized so w_ij + w_ji = 1 (the probability constraint of
// Ailon et al.). The result is a complete digraph — hence always
// Hamiltonian (Thm 5.1) — handed to Step 4, whose SAPS writes its cost
// matrix over the closure's storage (core/saps.hpp).
//
// The production propagator sums *walks* rather than enumerating simple
// paths, and takes that sum from its rank-one Perron limit wherever the
// limit holds (see DESIGN.md substitution #3); PropagationMode::ExactPaths
// provides the literal definition for small n.
#pragma once

#include <cstddef>

#include "graph/preference_graph.hpp"
#include "util/matrix.hpp"

namespace crowdrank {

/// Which indirect-preference engine to use.
enum class PropagationMode {
  /// sum_{k=2..max_length} W^k — O(max_length * n^3), the default.
  BoundedWalks,
  /// Exhaustive simple-path enumeration — exponential, n <= ~12 only.
  ExactPaths,
  /// sum_{k=1..L} W^k with L the smallest power of two >= max(n,
  /// max_length) (or >= spectral_horizon when set). Covers pairs up to
  /// graph distance ~n (a bounded horizon leaves far pairs evidence-free
  /// on sparse, path-like task graphs). The global scale of the sum is
  /// normalized away, so `alpha` is ignored: direct edges participate
  /// through the k = 1 term and the closure is the pair-normalized sum
  /// itself. Two engines compute it (DESIGN.md §7c):
  ///  * Perron limit (spectral_horizon == 0): once W^k dominates, the sum
  ///    is rank one, proportional to u v^T for W's right and left Perron
  ///    vectors, so w_ij = u_i v_j / (u_i v_j + u_j v_i). Two power
  ///    iterations over the CSR, O(m) per step. Taken when W is strongly
  ///    connected, both vectors converge within L steps (a periodic W
  ///    never does), and lambda^L outweighs the sum's other terms;
  ///    elsewhere the doubling runs and PropagationStats::perron_fallback
  ///    is set.
  ///  * Doubling (S(2m) = S(m) + W^m S(m)) with per-step
  ///    max-renormalization so nothing overflows: the fallback, and the
  ///    only engine for an explicit horizon. It runs sparse-first on CSR
  ///    kernels while the state's fill stays at or under 20%, then
  ///    densifies once and finishes on the blocked dense kernels —
  ///    O(flops performed) in the sparse regime, O(log L * n^3) once
  ///    dense; both phases are bitwise-identical to the all-dense
  ///    formulation (the oracle under tests/core/).
  SpectralLimit,
};

/// How multiple transitive paths between the same pair combine.
enum class PathAggregation {
  /// w*_ij = sum over paths of the product of weights — §V-C verbatim.
  /// The magnitude grows with path count, so dense graphs dilute direct
  /// evidence after the alpha-blend.
  Sum,
  /// w*_ij = (sum over paths) / (number of paths): "each path has equal
  /// importance" read as an average, keeping w* on the direct weights'
  /// [0,1] scale. Offered for the ablation bench; Sum (the paper's literal
  /// definition) is the default — its magnitude growth flattens the
  /// normalized closure toward uniformity, which is precisely what makes
  /// the max-probability-path objective track the global order instead of
  /// rewarding long confident hops (see bench/ablation_propagation).
  Average,
};

struct PropagationConfig {
  PropagationMode mode = PropagationMode::BoundedWalks;
  PathAggregation aggregation = PathAggregation::Sum;
  /// SpectralLimit only: walk-length horizon of the sum. 0 (the default)
  /// sums to L, the power of two >= max(max_length, n), and takes the sum
  /// from its Perron limit, falling back to the doubling where the limit
  /// does not hold at L (a reducible or periodic W, e.g. a path-shaped
  /// l = n - 1 budget, or a walk that does not mix within L steps). An
  /// explicit horizon always runs the doubling: setting it to L
  /// reproduces the doubling's closure for the auto horizon bit for bit,
  /// the oracle the Perron limit is tested against. A small horizon
  /// (e.g. 4 with a degree-16 budget) truncates the sum after covering
  /// every pair within that graph distance, keeping very large n inside
  /// the doubling's sparse phase. Must be 0 or >= 2.
  std::size_t spectral_horizon = 0;
  /// Maximum transitive path/walk length considered (paper: up to n-1).
  /// Longer horizons push W^k toward its dominant-eigenvector structure, so
  /// the normalized closure approaches a spectral ranking of the smoothed
  /// graph — empirically this is what lifts sparse-budget accuracy to the
  /// paper's reported range (bench/ablation_propagation sweeps L).
  /// Cost is O(max_length * n^3).
  std::size_t max_length = 12;
  /// alpha: weight of the *direct* preference in the final blend.
  double alpha = 0.4;
  /// After normalization each ordered weight is clamped into
  /// [floor, 1 - floor]: a pair with evidence in only one direction would
  /// otherwise produce a zero weight and break the completeness that
  /// Thm 5.1's always-an-HP guarantee rests on.
  double completeness_floor = 1e-6;
};

/// Step-3 diagnostics.
struct PropagationStats {
  std::size_t pairs_without_evidence = 0;  ///< pairs defaulted to 0.5 / 0.5
  bool complete = false;                   ///< closure is a complete digraph
  // Sparse-first doubling diagnostics (SpectralLimit mode; zero
  // otherwise). Mirrored into the propagation.* trace metrics so RunReport
  // / BENCH output shows where the hybrid switched representation.
  double fill_ratio = 0.0;       ///< doubling-state fill when the loop ended
  std::size_t densify_step = 0;  ///< 1-based step run dense first; 0 = all-sparse
  std::size_t doubling_steps = 0;  ///< doubling steps executed
  std::uint64_t sparse_flops = 0;  ///< flops spent in the CSR kernels
  // Perron-limit diagnostics (SpectralLimit with the auto horizon; zero
  // otherwise): how fast the batch's walk mixes, i.e. how rankable it is.
  std::size_t perron_iterations = 0;  ///< power-iteration steps run
  /// Last ratio of successive residuals: estimates |lambda_2 / lambda_1|.
  double perron_ratio = 0.0;
  bool perron_fallback = false;  ///< the limit did not hold; doubling ran
};

/// Runs Step 3 on the smoothed graph G~_P and returns the normalized
/// transitive closure G*_P as a dense weight matrix (w_ij + w_ji = 1 for
/// all i != j; diagonal 0). Ordered pairs with neither direct weight nor
/// any bounded-length indirect evidence fall back to the uninformative
/// 0.5 / 0.5 so the closure is always complete.
Matrix propagate_preferences(const PreferenceGraph& smoothed,
                             const PropagationConfig& config,
                             PropagationStats* stats = nullptr);

}  // namespace crowdrank
