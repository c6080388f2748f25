// Step 4 (heuristic) — simulated-annealing path search, SAPS (paper §V-D2).
//
// Minimizes the equivalent objective sum over path edges of log(1/w) —
// i.e. maximizes the preference probability — with the three permutation
// moves of Algorithm 2 (Rotate, Reverse, RandomSwap) applied per iteration,
// each accepted via Algorithm 3's Metropolis rule: better always, worse
// with probability exp(-(d_next - d_cur) / T), with geometric cooling
// T <- T * c.
//
// Algorithm 2 restarts the chain from initial paths anchored at each vertex
// (greedy nearest-neighbor, or the out-/in-weight-difference ranking). A
// full n-restart sweep is quadratic-ish at n = 1000, so the restart count
// is configurable; `paper_mode` restores the literal per-vertex sweep.
//
// Hot-path kernels (core/saps_kernel.hpp): `saps_search` materializes the
// -log w cost matrix once per call, over the closure's own storage, and
// scores every proposal through it,
// ranks the weight-difference start once for all restarts, and decides a
// worse move without exp where its one uniform draw already settles the
// Metropolis test. Restart r is seeded with `task_stream_seed(base, r)`
// where `base` is a single draw from the caller's Rng, and the winner is
// a min-reduction in restart order keyed on (log_cost, restart_index).
// Restart chains run as independent pool tasks only when the search
// proposes at least 2M moves (restarts x iterations x n); below that,
// n <= 166 at the defaults, they run serially on the caller and wall time
// does not scale with CROWDRANK_THREADS. Output is bitwise-identical
// either way, and equal to the per-restart reference search in
// tests/core/saps_reference.hpp (tests/core/test_determinism.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/types.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// How restart chains build their initial Hamiltonian path.
enum class SapsInitMode {
  /// From the start vertex, repeatedly hop to the unvisited successor of
  /// maximum edge weight (Algorithm 2's "nearest neighbors").
  GreedyNearestNeighbor,
  /// Rank all vertices by (sum of out-weights - sum of in-weights),
  /// descending (Algorithm 2's degree-difference ranking); the start vertex
  /// is forced to the front.
  WeightDifferenceRanking,
  /// Uniformly random permutation (ablation bench baseline).
  RandomPermutation,
};

struct SapsConfig {
  std::size_t iterations = 3000;  ///< N: annealing steps per restart
  double initial_temperature = 1.0;
  double cooling_rate = 0.995;  ///< c in T <- T * c
  /// Number of restart chains; each starts from a distinct anchor vertex
  /// (cycling through 0..n-1). Ignored when paper_mode is set.
  std::size_t restarts = 4;
  /// Restart from *every* vertex as Algorithm 2 line 2 literally says.
  bool paper_mode = false;
  /// Default is the weight-difference ranking (Algorithm 2 line 3's second
  /// option): on pair-normalized closures greedy nearest-neighbor is
  /// pathological — the highest-weight successor of any vertex is the most
  /// *dominated* object, so the greedy chain starts near-reversed and
  /// annealing must undo it. bench/ablation_saps quantifies this.
  SapsInitMode init_mode = SapsInitMode::WeightDifferenceRanking;
  /// Move toggles (ablation bench flips these).
  bool use_rotate = true;
  bool use_reverse = true;
  bool use_swap = true;
};

struct SapsResult {
  Path best_path;
  double log_cost = 0.0;       ///< sum log(1/w); lower is better
  double probability = 0.0;    ///< exp(-log_cost); may underflow to 0
  std::size_t moves_accepted = 0;
  std::size_t moves_proposed = 0;
  std::size_t restarts_run = 0;
};

/// Runs SAPS on a preference closure (typically Step 3's complete matrix;
/// any square weight matrix with weights in [0,1] works — missing edges are
/// treated as a huge but finite cost so chains can cross them and recover).
/// This form consumes the closure: its storage becomes the search's -log w
/// cost matrix, so the search allocates no second n x n buffer. The engine
/// calls it once Step 3's closure has no other reader.
SapsResult saps_search(Matrix&& closure, const SapsConfig& config, Rng& rng);

/// Same search over a copy of `closure`, which stays untouched; equal to
/// the consuming form bit for bit.
SapsResult saps_search(const Matrix& closure, const SapsConfig& config,
                       Rng& rng);

/// The three permutation moves, exposed for tests and the micro benches.
/// All preserve the permutation property. Index preconditions mirror
/// std::rotate / std::reverse / swap semantics on [first, last] inclusive.
void saps_rotate(Path& path, std::size_t first, std::size_t middle,
                 std::size_t last);
void saps_reverse(Path& path, std::size_t first, std::size_t last);
void saps_swap(Path& path, std::size_t a, std::size_t b);

}  // namespace crowdrank
