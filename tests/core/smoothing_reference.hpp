// Reference Step 2: the path the engine ran before step 2 read step 1's
// truths directly, kept as the oracle for core/smoothing.cpp.
//
// It builds the direct graph with `to_preference_graph`, reads each task's
// two weights back out of it by binary search (`weight()`), counts the
// direct graph's in-/out-nodes and 1-edges from its CSR, takes sigma_k and
// err_k afresh for every (1-edge, worker) pair, and builds the smoothed
// graph as a second PreferenceGraph. The worker rows are one
// std::vector per task, built by the original per-task loops.
// tests/core/test_smoothing_reference.cpp pins the flat-row, one-graph
// step 2 to it bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/smoothing.hpp"
#include "core/truth_discovery.hpp"
#include "crowd/hit.hpp"
#include "graph/preference_graph.hpp"
#include "util/rng.hpp"

namespace crowdrank {

/// Same order rules as `assigned_workers`, one vector per task.
std::vector<std::vector<WorkerId>> assigned_workers_reference(
    const VoteIndex& index, const HitAssignment& assignment);

/// Same order rules as `voting_workers`, one vector per task.
std::vector<std::vector<WorkerId>> voting_workers_reference(
    const VoteIndex& index);

/// What the engine's step 2 produced.
struct SmoothingReference {
  PreferenceGraph smoothed;
  SmoothingStats stats;
  /// 1-edges of the direct graph (`one_edges().size()`).
  std::size_t one_edge_count = 0;
};

/// Same contract as `smooth_preferences`, with the direct graph built
/// from `step1` and `assignment_workers[t]` listing truths[t]'s workers.
SmoothingReference smooth_preferences_reference(
    std::size_t object_count, const TruthDiscoveryResult& step1,
    std::span<const std::vector<WorkerId>> assignment_workers,
    const SmoothingConfig& config, Rng* rng);

}  // namespace crowdrank
