// Step 2 — preference smoothing (paper §V-B).
//
// 1-edges (unanimous tasks, weight exactly 1) are the root cause of
// Hamiltonian-path failure: they create in-/out-nodes whose reverse
// preference was simply never observed in this single round. Smoothing
// estimates that unseen reverse preference from the quality of the workers
// who answered the task: with sigma_k = -log(q_k), worker k's error mass is
// err_k ~ |N(0, sigma_k^2)|, and the 1-edge (i, j) becomes
//   w_ij = 1 - mean_k(err_k),   w_ji = mean_k(err_k).
// After smoothing, every crowdsourced edge is bidirectional with positive
// weights, so the smoothed graph of a *connected* task graph is strongly
// connected — the precondition of Thm 5.1's always-an-HP guarantee.
//
// Step 2 reads step 1's truths directly: task (i, j) with truth x has the
// direct weights w_ij = x and w_ji = 1 - x, exactly what
// TruthDiscoveryResult::to_preference_graph stores (a weight of 0 is an
// absent edge). So the smoothed graph is the only graph a run builds
// before Step 3; the direct graph G_P is built only by the stage
// validators and `crowdrank diagnose`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/truth_discovery.hpp"
#include "crowd/hit.hpp"
#include "graph/preference_graph.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// How the per-worker error mass err_k is obtained from sigma_k.
enum class SmoothingMode {
  /// err_k = E|N(0, sigma_k^2)| = sigma_k * sqrt(2/pi). Deterministic;
  /// the library default.
  ExpectedError,
  /// err_k = |draw from N(0, sigma_k^2)|, the paper's literal description.
  /// Needs an Rng.
  SampledError,
};

struct SmoothingConfig {
  SmoothingMode mode = SmoothingMode::ExpectedError;
  /// Smoothed reverse mass is clamped into [min_mass, max_mass]: the floor
  /// keeps the reverse edge present even for perfect workers (q_k = 1 gives
  /// sigma_k = 0), the ceiling keeps the forward direction preferred.
  double min_mass = 1e-3;
  double max_mass = 0.49;
};

/// Per-run smoothing diagnostics.
struct SmoothingStats {
  std::size_t one_edges_smoothed = 0;
  std::size_t in_nodes_before = 0;
  std::size_t out_nodes_before = 0;
  bool strongly_connected_after = false;
};

/// The workers of each step-1 task in flat rows: the workers of truths[t]
/// are `workers[offsets[t] .. offsets[t + 1])`. Worker ids are 4 bytes,
/// as in step 1's rows.
struct TaskWorkers {
  std::vector<std::size_t> offsets{0};  ///< size tasks + 1
  std::vector<std::uint32_t> workers;

  std::size_t task_count() const { return offsets.size() - 1; }
  std::span<const std::uint32_t> of_task(std::size_t t) const {
    return {workers.data() + offsets[t], offsets[t + 1] - offsets[t]};
  }
};

/// Workers of each task of `index` as the assignment lists them; a task
/// the assignment lists twice takes its first listing. Throws when a task
/// is not in the assignment, and when a listed worker id does not fit in
/// 32 bits.
TaskWorkers assigned_workers(const VoteIndex& index,
                             const HitAssignment& assignment);

/// Distinct voters of each task of `index`, in first-seen order.
TaskWorkers voting_workers(const VoteIndex& index);

/// Applies Step 2 to the Step-1 output over `object_count` objects.
/// `task_workers` row t lists the workers of truths[t]'s task, whose
/// qualities smooth it if it is a 1-edge; a worker id outside
/// `step1.worker_quality` throws there. `rng` may be null for
/// SmoothingMode::ExpectedError. Each worker's sigma_k (and, for
/// ExpectedError, its err_k) is computed once; SampledError draws one
/// error per (1-edge, worker) pair, in row order.
/// Returns the smoothed graph (the paper's G~_P), built in O(n + m) over
/// exactly step 1's task pairs. `stats` counts the in-/out-nodes of the
/// direct graph, read from the same weights (edge i -> j exists iff its
/// weight is > 0).
PreferenceGraph smooth_preferences(std::size_t object_count,
                                   const TruthDiscoveryResult& step1,
                                   const TaskWorkers& task_workers,
                                   const SmoothingConfig& config, Rng* rng,
                                   SmoothingStats* stats = nullptr);

/// sigma_k = -log(q_k). The quality is clamped into [1e-9, 1] first so the
/// result is finite and non-negative even for degenerate q_k.
double worker_sigma_from_quality(double quality);

}  // namespace crowdrank
