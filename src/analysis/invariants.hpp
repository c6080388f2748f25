// Runtime invariant checker for the inference pipeline.
//
// The paper's correctness argument rests on structural properties the code
// computes but never re-verifies at runtime: fair (near-regular, connected)
// task graphs (§IV, Thm 4.1), truth and quality estimates in [0, 1] (§V-A),
// smoothing that softens exactly the 1-edges while keeping the unanimous
// direction preferred (§V-B), a pair-normalized complete closure
// (§V-C / Thm 5.1), and final rankings that are true permutations. This
// module turns each of those stage postconditions into a validator that
// throws `InvariantError` — naming the stage and the first offending
// element — when the property fails.
//
// Activation
//  * `InferenceConfig::check_invariants` / CLI `--check-invariants` turn
//    the stage-boundary checks on for one engine.
//  * The `CROWDRANK_CHECK_INVARIANTS` environment variable (1/true/on,
//    0/false/off) turns them on or off process-wide; the asan/ubsan test
//    presets set it so every sanitizer run also validates stage output.
//  * Default: ON in debug-check builds (CROWDRANK_DEBUG_CHECKS, i.e.
//    !NDEBUG), OFF — zero work beyond one boolean test per stage — in
//    Release. The validators themselves are always compiled and callable.
//
// Every validator bumps the active trace sink's "invariants.checks"
// counter on entry and "invariants.violations" before throwing, so run
// reports show whether a run was validated and what tripped.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/smoothing.hpp"
#include "core/truth_discovery.hpp"
#include "graph/preference_graph.hpp"
#include "graph/task_graph.hpp"
#include "metrics/ranking.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"

namespace crowdrank::analysis {

/// Thrown by the validators below; `stage()` names the pipeline boundary
/// that failed (e.g. "step3_propagation").
class InvariantError : public Error {
 public:
  InvariantError(std::string stage, const std::string& detail);

  const std::string& stage() const noexcept { return stage_; }

 private:
  std::string stage_;
};

/// Whether stage-boundary checks are currently on: a set_invariant_checks()
/// override wins, then CROWDRANK_CHECK_INVARIANTS (parsed once per
/// process), then the build default (on iff CROWDRANK_DEBUG_CHECKS).
bool invariant_checks_enabled() noexcept;

/// Programmatic override; std::nullopt returns to the env/build default.
void set_invariant_checks(std::optional<bool> enabled) noexcept;

// ---------------------------------------------------------------------
// Stage validators. Each throws InvariantError on the first violation and
// returns normally otherwise. All are O(n^2) or cheaper — strictly lighter
// than the stages they guard.
// ---------------------------------------------------------------------

/// Task assignment (§IV): exactly `expected_edges` edges, connected, and
/// fair — degrees within 1 of each other, exactly 2l/n everywhere when n
/// divides 2l (Thm 4.1's regularity).
void check_task_graph(const TaskGraph& graph, std::size_t expected_edges);

/// Step 1 (§V-A): every task canonical (i < j < n), no duplicate tasks,
/// every x_ij and every worker quality/weight in [0, 1], vectors sized to
/// `worker_count`, each discovered task backed by at least one vote, at
/// most every task contested, and 1 <= full_passes <= iterations.
void check_truth_discovery(const TruthDiscoveryResult& step1,
                           std::size_t object_count,
                           std::size_t worker_count);

/// Preference-graph representation, O(n + m): the out-edge CSR's row_ptr
/// is monotone and closed (0 to m, one weight per neighbor), every row is
/// strictly ascending over in-range ids with no self-preference, and every
/// stored weight lies in (0, 1]. Takes the CSR itself (a graph passes
/// `out_csr()`) so tests can corrupt a detached copy.
void check_preference_graph(const CsrAdjacency& graph);

/// Step 2 (§V-B): smoothing touched exactly the 1-edges. For every
/// 1-edge of `direct` the smoothed pair carries total mass 1 with the
/// reverse mass inside [min_mass, max_mass] (so the unanimous direction
/// stays preferred); every other weight is bit-identical to `direct`.
/// Walks both graphs' edges, not all n^2 pairs.
void check_smoothing(const PreferenceGraph& direct,
                     const PreferenceGraph& smoothed,
                     const SmoothingConfig& config);

/// Step 3 (§V-C): the closure is a complete pair-stochastic digraph —
/// square, zero diagonal, every off-diagonal weight in (0, 1), and
/// w_ij + w_ji = 1 for every pair (Thm 5.1's precondition).
void check_closure(const Matrix& closure);

/// A row-stochastic matrix check (each row sums to 1 within `tolerance`),
/// for propagation-internal transition matrices.
void check_stochastic_rows(const Matrix& matrix, double tolerance = 1e-9);

/// Step 4: the ranking is a total order — a permutation of 0..n-1 whose
/// positions() array is its exact inverse.
void check_ranking(const Ranking& ranking, std::size_t object_count);

}  // namespace crowdrank::analysis
