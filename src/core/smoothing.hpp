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
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/truth_discovery.hpp"
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

/// Applies Step 2 to the Step-1 output. `truths` identifies which task each
/// 1-edge came from so the right workers' qualities are consulted;
/// `assignment_workers[t]` lists the workers of truths[t]'s task.
/// `rng` may be null for SmoothingMode::ExpectedError.
/// Returns the smoothed graph (the paper's G~_P), built in O(n + m) from
/// step 1's task pairs with their weights read from `graph`; edges of
/// `graph` between other pairs are not carried over.
PreferenceGraph smooth_preferences(
    const PreferenceGraph& graph, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng, SmoothingStats* stats = nullptr);

/// sigma_k = -log(q_k). The quality is clamped into [1e-9, 1] first so the
/// result is finite and non-negative even for degenerate q_k.
double worker_sigma_from_quality(double quality);

}  // namespace crowdrank
